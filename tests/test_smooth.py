import numpy as np
import pytest

from semiflow.smooth import step

from oracles import exp_step

TINY = 5e-324                       # the smallest subnormal
SUBNORMAL = 2.2250738585072014e-308 / 3
EDGES = [0.0, -0.0, 1.0, np.inf, -np.inf, TINY, -TINY, SUBNORMAL, -SUBNORMAL,
         np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.5, 0.25, 0.75, -3.0, 7.0]


def _bits(v):
    v = np.asarray(v)
    return v.dtype, v.shape, v.view(np.int64).tolist()


def test_step_matches_the_formula_bit_for_bit():
    rng = np.random.default_rng(41)
    u = np.concatenate([EDGES, np.linspace(-0.5, 1.5, 20001), rng.uniform(-1, 2, 20000),
                        1.0 + rng.normal(0.0, 1e-15, 1000), rng.normal(0.0, 1e-300, 1000)])
    assert _bits(step(u)) == _bits(exp_step(u))
    grid = u[:20000].reshape(100, 200)
    assert _bits(step(grid)) == _bits(exp_step(grid))


@pytest.mark.parametrize("u", EDGES)
def test_step_scalars_and_0d_arrays_match_the_formula(u):
    for arg in (u, np.float64(u), np.array(u)):
        got, want = step(arg), exp_step(arg)
        assert type(got) is type(want)
        assert _bits(got) == _bits(want)


def test_step_keeps_nan():
    assert np.isnan(step(np.nan))
    out = step(np.array([np.nan, 0.5, np.nan, -1.0, 2.0]))
    assert np.isnan(out[[0, 2]]).all()
    assert _bits(out[[1, 3, 4]]) == _bits(exp_step(np.array([0.5, -1.0, 2.0])))
