import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow import (PreconditionViolation, TrigPolynomial, Verdict,
                      cobounding_potential, cocycle_residual, eigenfunction_check,
                      weak_mixing_test)
from semiflow.ceiling import MAX_HARMONIC
from semiflow.cli import main
from semiflow.mixing import sample_psi, tail_bound

from conftest import parse_violations
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
    rep = cobounding_potential(f_const, 8)
    assert np.all(rep.Psi(np.arange(256) / 256) == 0.0)
    assert rep.c == 1.0


def test_cobounding_potential_sin(f_sin):
    rep = cobounding_potential(f_sin, 20)
    xs = np.arange(1024) / 1024
    assert np.max(np.abs(series_psi(f_sin, xs, rep.depth))) <= 1e-12
    assert np.max(np.abs(rep.Psi(xs))) <= 1e-12
    assert rep.c == 1.0


def test_cobounding_potential_coboundary(f_cob):
    rep = cobounding_potential(f_cob, 24)
    xs = np.arange(4096) / 4096
    assert np.max(np.abs(rep.Psi(xs) - 0.05 * np.sin(2 * np.pi * xs))) \
        <= rep.tail_bound + 1e-10
    assert rep.c == 1.0


def test_cobounding_potential_grid_validation():
    # the residual grid and the depth have their one check at parse
    for params, message in (({"grid": 128}, "grid must be a power of two >= 256"),
                            ({"grid": 300}, "grid must be a power of two >= 256"),
                            ({"depth": 0}, "depth must be an integer >= 1")):
        assert message in parse_violations(experiment="mixing", params=params)


def test_psi_mean_zero(f_cob, f_generic, f_cob2):
    for f in (f_cob, f_cob2, f_generic):
        rep = cobounding_potential(f, 16)
        psi = rep.Psi(np.arange(1024) / 1024, 1)
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
    rep = cobounding_potential(f_const, 8)
    assert cocycle_residual(rep, f_const, 256) == 0.0


def test_cocycle_residual_coboundary(f_cob):
    rep = cobounding_potential(f_cob, 24)
    assert cocycle_residual(rep, f_cob, 4096) <= 1e-8


def test_cocycle_residual_sin_is_amplitude(f_sin):
    # Psi = 0 so the residual is sup |f - 1| = 0.2
    rep = cobounding_potential(f_sin, 24)
    assert cocycle_residual(rep, f_sin, 4096) == pytest.approx(0.2, abs=1e-6)


def test_verdicts(f_const, f_cob, f_sin):
    assert weak_mixing_test(f_const, 4096, 24).verdict is Verdict.NOT_WEAKLY_MIXING
    assert weak_mixing_test(f_cob, 4096, 24).verdict is Verdict.NOT_WEAKLY_MIXING
    assert weak_mixing_test(f_sin, 4096, 24).verdict is Verdict.WEAKLY_MIXING


def test_verdict_reads_the_livsic_sum_not_the_grid_residual():
    # f = 1 + 0.1 sin 8 pi x at depth 2: the residual (0.1) is below the tail
    # bound (0.63), but the lone harmonic's Livsic sum b_1 = 0.1 is not zero
    f = TrigPolynomial(1.0, ((4, 0.0, 0.1),), 2)
    rep = weak_mixing_test(f, grid=1024, depth=2)
    assert rep.residual_sup == pytest.approx(0.1)
    assert rep.residual_sup < rep.tail_bound
    assert rep.verdict is Verdict.WEAKLY_MIXING


def test_truncated_series_is_never_a_coboundary_verdict(capsys):
    # f = 1 + 0.1 sin 8 pi x: Psi is exact after two levels, and the residual
    # is 0.1.  At depth 2 the tail bound (0.63) exceeds it, and the verdict
    # is still WeaklyMixing, as at the default depth
    argv = ["mixing", "--set", 'ceiling={"ell":2,"mean":1.0,"harmonics":[[4,0.0,0.1]]}']
    assert main(argv + ["--set", "params.depth=2"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["residual_sup"] == pytest.approx(0.1)
    assert payload["residual_sup"] < payload["tail_bound"]
    assert payload["verdict"] == "WeaklyMixing"
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["verdict"] == "WeaklyMixing"


def test_truncated_series_is_never_a_weakly_mixing_verdict(capsys):
    # f - 1 = g(2x) - g(x) with g = 0.05 sin 16 pi x is a coboundary.  At
    # depth 1 the residual (0.088) is nonzero, yet the verdict is
    # NotWeaklyMixing; the eigenfunction built from the depth-1 Psi is off by
    # 0.537, and the full Psi's is exact
    argv = ["mixing", "--set",
            'ceiling={"ell":2,"mean":1.0,"harmonics":[[8,0.0,-0.05],[16,0.0,0.05]]}']
    assert main(argv + ["--set", "params.depth=1"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["residual_sup"] == pytest.approx(0.088, abs=1e-3)
    assert payload["verdict"] == "NotWeaklyMixing"
    assert payload["eigenfunction_defect"] == pytest.approx(0.537, abs=1e-3)
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["verdict"] == "NotWeaklyMixing"
    assert payload["eigenfunction_defect"] <= 1e-10


@pytest.mark.parametrize("harmonics, verdict", [
    # a lone harmonic is no coboundary, however small
    pytest.param([[1, 0, 3e-7]], "WeaklyMixing", id="lone-3e-7"),
    pytest.param([[1, 0, 1e-4]], "WeaklyMixing", id="lone-1e-4"),
    # the binary sum 0.1 + 0.2 - 0.3 is 2.8e-17, within the allowance 2.0e-16
    pytest.param([[1, 0, 0.1], [2, 0, 0.2], [4, 0, -0.3]], "NotWeaklyMixing",
                 id="decimal-chain"),
])
def test_mixing_verdict_is_the_livsic_sums(harmonics, verdict, capsys):
    ceiling = json.dumps({"ell": 2, "mean": 1.0, "harmonics": harmonics})
    assert main(["mixing", "--set", f"ceiling={ceiling}"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["verdict"] == verdict
    assert ("eigenfunction_defect" in payload) == (verdict == "NotWeaklyMixing")


_DYADIC = 2.0 ** -24


def _chain_part(draw, n, b=None):
    """The cosine or sine coefficients of a chain of n harmonics: with b, n
    dyadic ones that sum to b 2^-24; without, n - 1 floats or dyadics and,
    last, minus their left-to-right float sum."""
    if b is None and draw(st.booleans()):
        head = draw(st.lists(st.floats(-0.1, 0.1), min_size=n - 1, max_size=n - 1))
        return head + [-float(sum(head))]
    head = draw(st.lists(st.integers(-2 ** 16, 2 ** 16), min_size=n - 1, max_size=n - 1))
    return [i * _DYADIC for i in head + [(b or 0) - sum(head)]]


def _chain(draw, ell, j, minimum, broken=None):
    """Harmonics on the chain ell^m j <= 1024, a nonzero sum in the part
    ``broken`` (0 cosine, 1 sine) if given, else both parts cancelling."""
    ks = [j * ell ** m for m in range(MAX_HARMONIC.bit_length()) if j * ell ** m <= MAX_HARMONIC]
    ks = draw(st.lists(st.sampled_from(ks), min_size=minimum, unique=True))
    b = None if broken is None else draw(st.integers(16, 2 ** 16)) * draw(st.sampled_from([-1, 1]))
    parts = [_chain_part(draw, len(ks), b if part == broken else None) for part in (0, 1)]
    return list(zip(ks, *parts))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_verdict_is_exact_on_livsic_chains(data):
    # chains that cancel, in dyadics or against a float sum, are a
    # coboundary; one chain with a dyadic |b_j| >= 2^-20 makes f weakly mixing
    ell = data.draw(st.sampled_from([2, 3]))
    heads = data.draw(st.lists(st.sampled_from(
        [j for j in range(1, MAX_HARMONIC // ell + 1) if j % ell]), max_size=3, unique=True))
    harmonics = [h for j in heads for h in _chain(data.draw, ell, j, 2)]
    broken = data.draw(st.sampled_from([None, 0, 1]))
    if broken is not None:
        j = data.draw(st.sampled_from([j for j in range(1, MAX_HARMONIC + 1)
                                       if j % ell and j not in heads]))
        harmonics += _chain(data.draw, ell, j, 1, broken)
    f = TrigPolynomial(1.0, tuple(harmonics), ell)
    expect = Verdict.NOT_WEAKLY_MIXING if broken is None else Verdict.WEAKLY_MIXING
    assert weak_mixing_test(f, 256, 24).verdict is expect


def test_eigenfunction_constant(f_const):
    rep = weak_mixing_test(f_const, 4096, 24)
    assert eigenfunction_check(rep, f_const, [0.7]) <= 1e-10


def test_eigenfunction_coboundary(f_cob):
    rep = weak_mixing_test(f_cob, 4096, 24)
    assert eigenfunction_check(rep, f_cob, [1.3, 2.7]) <= 1e-6


def test_coboundary_report_is_frozen(f_cob):
    # weak_mixing_test builds the report once; nothing can fill it in later
    rep = weak_mixing_test(f_cob, 4096, 24)
    for field, value in (("verdict", Verdict.WEAKLY_MIXING), ("residual_sup", 0.0)):
        with pytest.raises(FrozenInstanceError):
            setattr(rep, field, value)
    assert rep.verdict is Verdict.NOT_WEAKLY_MIXING


def test_eigenfunction_check_needs_a_not_weakly_mixing_verdict(f_cob):
    # a report without a verdict, or a WeaklyMixing one, has no eigenfunction
    # to check, even when its residual is small: 1 + 3e-7 sin 2 pi x leaves a
    # residual of 3e-7
    bare = cobounding_potential(f_cob, 24)
    assert cocycle_residual(bare, f_cob, 4096) <= 1e-8
    tiny = weak_mixing_test(TrigPolynomial(1.0, ((1, 0.0, 3e-7),), 2), 4096, 24)
    assert tiny.verdict is Verdict.WEAKLY_MIXING
    assert tiny.residual_sup == pytest.approx(3e-7)
    for rep in (bare, tiny):
        with pytest.raises(PreconditionViolation, match="no eigenfunction to check"):
            eigenfunction_check(rep, f_cob, [1.3])


def test_eigenfunction_constant_two():
    f2 = TrigPolynomial(2.0, (), 2)
    rep = weak_mixing_test(f2, 4096, 24)
    assert rep.c == 2.0
    assert eigenfunction_check(rep, f2, [2.0]) <= 1e-10


def test_eigenfunction_rejects_large_residual(f_sin):
    rep = weak_mixing_test(f_sin, 4096, 24)
    with pytest.raises(PreconditionViolation):
        eigenfunction_check(rep, f_sin, [1.0])


def test_constant_shift_moves_c_not_psi(f_sin):
    shifted = TrigPolynomial(f_sin.mean_coeff + 0.5, f_sin.harmonics, f_sin.ell)
    a = cobounding_potential(f_sin, 12)
    b = cobounding_potential(shifted, 12)
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

