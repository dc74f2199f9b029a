import math

import numpy as np
import pytest

from semiflow import (FlowPoint, InvalidArgument, ResourceLimit, TrigPolynomial, branch_table,
                      classify, dynamics, exponent_fit, extrema, m_of_t, n_of_t,
                      transversality)
from semiflow.ceiling import CeilingClass
from semiflow.transversality import grid_estimates

from conftest import parse_violations, random_positive_ceiling
from oracles import (enumerate_branches, line_scan_n, pair_scan_m,
                     per_point_grid, periodic_beta_max, point_m)

GEN3 = TrigPolynomial(1.3, ((1, 0.0, 0.3), (2, 0.1, 0.0), (3, 0.05, 0.05)), 3)


def test_m_sum_constant_is_one(f_const):
    assert point_m(f_const, FlowPoint(0.3, 0.2), 2.5, 0.0) == 1.0


def test_target_above_roof_raises():
    # the grid passes points under the roof; a branches target above it is
    # refused by config parsing, f(0.3) < 1.2
    problems = parse_violations(
        experiment="branches", ceiling={"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]},
        params={"x": 0.3, "s": 5.0, "t": 4.0})
    assert "outside the region under the ceiling" in problems


def test_m_sum_coboundary_is_one(f_cob):
    # every pair of branch cones overlaps when max |Psi'| <= theta_f
    cls = classify(f_cob, 0.9)
    max_dpsi = 0.1 * math.pi
    assert 2 * max_dpsi <= 2 * cls.theta_f
    v = point_m(f_cob, FlowPoint(0.0, 0.0), 6.0, cls.theta_f)
    assert abs(v - 1.0) <= 1e-12


def test_m_sum_matches_pair_scan_oracle(f_sin):
    cls = classify(f_sin, 0.9)
    z = FlowPoint(0.0, 0.0)
    t = 10.0
    got = point_m(f_sin, z, t, cls.theta_f)
    branches = enumerate_branches(f_sin, z.x, z.s, t)
    want = pair_scan_m(branches, cls.theta_f, f_sin.ell)
    assert got == pytest.approx(want, abs=1e-12)
    assert got < 1.0


def test_m_sum_self_term_included(f_sin):
    # the reference branch always meets itself, so the sum is at least the
    # largest single branch weight
    cls = classify(f_sin, 0.9)
    z = FlowPoint(0.2, 0.1)
    branches = enumerate_branches(f_sin, z.x, z.s, 7.0)
    min_level = min(b[0] for b in branches)
    assert point_m(f_sin, z, 7.0, cls.theta_f) >= f_sin.ell ** float(-min_level) - 1e-12


def test_m_of_t_constant(f_const):
    est = m_of_t(f_const, 4.2, 8, 8, classify(f_const, 0.9), certified=True)
    assert est.m_value == 1.0
    assert est.m_upper == 1.0


def test_m_of_t_single_point_reduction(f_sin):
    cls = classify(f_sin, 0.9)
    est = m_of_t(f_sin, 6.0, 1, 1, certified=False, cls=cls)
    assert est.m_value == point_m(f_sin, FlowPoint(0.0, 0.0), 6.0, cls.theta_f)
    # uncertified, the grid value is a lower bound only: the upper bound is
    # the branch-sum identity's 1
    assert est.m_upper == 1.0
    assert est.slack == 0.0


def test_m_of_t_certified_dominates(f_sin, f_generic):
    for f in (f_sin, f_generic):
        for t in (4.0, 6.0):
            est = m_of_t(f, t, 12, 8, classify(f, 0.9), certified=True)
            assert est.m_upper >= est.m_value
            assert 0.0 < est.m_value <= 1.0


def test_m_of_t_matches_oracle_on_grid_sample(f_sin):
    # spot-check the grid maximum against the quadratic-scan oracle on the
    # same grid points
    cls = classify(f_sin, 0.9)
    t = 8.0
    nx, ns = 6, 3
    best = 0.0
    for i in range(nx):
        x = i / nx
        for j in range(ns):
            s = j * f_sin(x) / ns
            branches = enumerate_branches(f_sin, x, s, t)
            best = max(best, pair_scan_m(branches, cls.theta_f, f_sin.ell))
    est = m_of_t(f_sin, t, nx, ns, certified=False, cls=cls)
    assert est.m_value == pytest.approx(best, abs=1e-12)


def test_n_of_t_constant_is_one(f_const):
    for t in (2.5, 4.0, 7.5):
        assert n_of_t(f_const, t, 8, 8, classify(f_const, 0.9)) == pytest.approx(1.0, abs=1e-12)


def test_n_of_t_matches_line_scan_oracle(f_sin):
    cls = classify(f_sin, 0.9)
    t = 8.0
    nx, ns = 5, 2
    best = 0.0
    for i in range(nx):
        x = i / nx
        for j in range(ns):
            s = j * f_sin(x) / ns
            branches = enumerate_branches(f_sin, x, s, t)
            best = max(best, line_scan_n(branches, cls.theta_f, f_sin.ell))
    got = n_of_t(f_sin, t, nx, ns, cls=cls)
    assert got == pytest.approx(best, abs=1e-12)


def test_n_of_t_candidate_monotonicity(f_sin):
    # the sweep maximum dominates every finite candidate evaluation, and
    # enlarging the candidate set can only help
    cls = classify(f_sin, 0.9)
    z = FlowPoint(0.0, 0.0)
    t = 6.0
    aperture = 2 * cls.theta_f
    branches = enumerate_branches(f_sin, z.x, z.s, t)

    def line_mass(sigma):
        return sum(2.0 ** -n for n, _, _, _, slope in branches
                   if abs(slope - sigma) <= aperture * 2.0 ** -n)

    small = np.linspace(-1.5, 1.5, 9)
    large = np.concatenate([small, np.linspace(-1.5, 1.5, 33)])
    best_small = max(line_mass(s) for s in small)
    best_large = max(line_mass(s) for s in large)
    assert best_large >= best_small
    assert n_of_t(f_sin, t, 1, 1, cls=cls) >= best_large - 1e-12


def test_submultiplicativity_with_slack(f_sin, f_generic):
    slack = 0.05
    for f in (f_sin, f_generic):
        n4 = n_of_t(f, 4.0, 12, 6, classify(f, 0.9))
        n8 = n_of_t(f, 8.0, 12, 6, classify(f, 0.9))
        n12 = n_of_t(f, 12.0, 12, 6, classify(f, 0.9))
        assert n8 <= n4 * n4 + slack
        assert n12 <= n4 * n8 + slack


def test_cross_bound_with_slack(f_sin, f_generic):
    slack = 0.05
    for f in (f_sin, f_generic):
        cls = classify(f, 0.9)
        for t in (4.0, 6.0):
            f_min, f_max = extrema(f, 0)
            s = (f_max / f_min) * t + f_max
            m_est = m_of_t(f, s, 12, 8, certified=False, cls=cls)
            n_val = n_of_t(f, t, 16, 8, cls=cls)
            assert m_est.m_value <= n_val + slack


def test_lambda_min_constant_exact(f_const, f_const3):
    # lambda_min = ell^(1/beta_max) with beta_max the largest periodic orbit
    # average of f, here the constant itself
    for f, c in ((f_const, 1.0), (f_const3, 1.3)):
        expect = f.ell ** (1.0 / c)
        assert f.ell ** (1.0 / periodic_beta_max(f, 5)) == pytest.approx(expect, abs=1e-12)


def test_lambda_min_periodic_matches_oracle(f_sin):
    # the maximal orbit average over periods up to 12 is found by period 8
    assert periodic_beta_max(f_sin, 12) == pytest.approx(periodic_beta_max(f_sin, 8), abs=1e-12)


def test_lambda_min_bounds(f_generic):
    K = classify(f_generic, 0.9).theta_K * (0.9 * 2 - 1)
    assert 2.0 ** (1.0 / K) <= 2.0 ** (1.0 / periodic_beta_max(f_generic, 10)) <= 2.0 ** K


def test_exponent_fit_constant():
    rate, residual = exponent_fit([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
    assert rate == pytest.approx(1.0, abs=1e-14)
    assert residual == pytest.approx(0.0, abs=1e-14)


def test_exponent_fit_geometric():
    rate, residual = exponent_fit([(t, 2.0 ** -t) for t in range(1, 6)])
    assert rate == pytest.approx(0.5, rel=1e-12)
    assert residual <= 1e-12


def test_exponent_fit_refit_consistency(f_sin):
    samples = [(t, m_of_t(f_sin, t, 6, 4, classify(f_sin, 0.9), certified=False).m_value)
               for t in (4.0, 6.0, 8.0)]
    rate, _ = exponent_fit(samples)
    logs = np.log([v for _, v in samples])
    ts = np.array([t for t, _ in samples])
    slope = np.polyfit(ts, logs, 1)[0]
    assert rate == pytest.approx(math.exp(slope), rel=1e-6)


def test_exponent_fit_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        exponent_fit([(1.0, 1.0), (2.0, 1.0)])
    with pytest.raises(InvalidArgument):
        exponent_fit([(1.0, 1.0), (2.0, 0.0), (3.0, 1.0)])


def test_argmax_location_reported(f_sin):
    est = m_of_t(f_sin, 6.0, 8, 4, classify(f_sin, 0.9), certified=False)
    assert 0.0 <= est.argmax_x < 1.0
    assert est.argmax_on_section == (est.argmax_s == 0.0)


def test_m_sum_frozen_value_at_origin(f_sin):
    # frozen from the quadratic pair-scan oracle run recorded at build time
    cls = classify(f_sin, 0.9)
    v = point_m(f_sin, FlowPoint(0.0, 0.0), 10.0, cls.theta_f)
    assert v == pytest.approx(0.0224609375, abs=1e-15)


def test_m_of_t_spec_grid_frozen(f_sin):
    # the 64 x 8 grid at t = 12, oracle-checked pointwise below and frozen
    cls = classify(f_sin, 0.9)
    est = m_of_t(f_sin, 12.0, 64, 8, certified=True, cls=cls)
    assert est.m_value == pytest.approx(0.016357421875, abs=1e-15)
    assert est.m_upper == 1.0  # certified slack saturates at this resolution
    for x, s_frac in ((0.0, 0.0), (0.5, 0.375)):
        z = FlowPoint(x, s_frac * f_sin(x))
        branches = enumerate_branches(f_sin, z.x, z.s, 12.0)
        want = pair_scan_m(branches, cls.theta_f, f_sin.ell)
        assert point_m(f_sin, z, 12.0, cls.theta_f) == pytest.approx(want, abs=1e-12)


def test_m_and_n_oracle_base_three():
    from semiflow import TrigPolynomial
    f3 = TrigPolynomial(1.1, ((1, 0.1, 0.15),), 3)
    cls = classify(f3, 0.7)
    z = FlowPoint(0.4, 0.2)
    branches = enumerate_branches(f3, z.x, z.s, 6.0)
    assert point_m(f3, z, 6.0, cls.theta_f) == pytest.approx(
        pair_scan_m(branches, cls.theta_f, 3), abs=1e-12)
    best = 0.0
    for i in range(6):
        x = i / 6
        for j in range(3):
            s = j * f3(x) / 3
            bs = enumerate_branches(f3, x, s, 4.0)
            best = max(best, line_scan_n(bs, cls.theta_f, 3))
    assert n_of_t(f3, 4.0, 6, 3, cls=cls) == pytest.approx(best, abs=1e-12)


def test_n_value_never_exceeds_one(f_sin, f_generic):
    for f in (f_sin, f_generic):
        for t in (3.0, 5.0):
            assert n_of_t(f, t, 10, 6, classify(f, 0.9)) <= 1.0 + 1e-12


def test_grid_pass_equals_per_point_oracle(f_const, f_sin, f_generic):
    # one shared scan per column gives exactly the per-point maxima and the
    # first argmax, for every t of the list; m_of_t and n_of_t agree too
    rng = np.random.default_rng(5)
    t_values = [2.0, 3.5, 5.0]
    for f in (f_const, f_sin, f_generic, GEN3, random_positive_ceiling(rng)):
        cls = classify(f, 0.9)
        for certified in (True, False):
            got = grid_estimates(f, t_values, 5, 3, cls, certified, workers=1)
            for t, (est, n_value) in zip(t_values, got):
                want = per_point_grid(f, t, 5, 3, cls, certified)
                assert (est.m_value, est.m_upper, n_value, est.argmax_x, est.argmax_s) == want
                single = m_of_t(f, t, 5, 3, certified=certified, cls=cls)
                assert (single.m_value, single.m_upper, single.argmax_x, single.argmax_s) == \
                    want[:2] + want[3:]
                assert n_of_t(f, t, 5, 3, cls=cls) == want[2]


def test_widened_pass_stops_once_it_reaches_one(f_sin, monkeypatch):
    # with a small slope Lipschitz constant one t saturates the certified
    # bound and two do not; the pass skipped after saturation leaves every
    # value the per-point oracle gives, at one worker and at two
    cls = CeilingClass(theta_f=classify(f_sin, 0.9).theta_f, theta_K=0.05)
    t_values = [2.0, 3.5, 5.0]
    want = [per_point_grid(f_sin, t, 5, 3, cls, True) for t in t_values]
    assert [w[1] for w in want] == [1.0, 0.8125, 0.46875]
    for workers in (1, 2):
        got = grid_estimates(f_sin, t_values, 5, 3, cls, True, workers)
        assert [(est.m_value, est.m_upper, n_value, est.argmax_x, est.argmax_s)
                for est, n_value in got] == want
    widened = []
    overlap = transversality._overlap_maxima
    monkeypatch.setattr(transversality, "_overlap_maxima",
                        lambda *args: widened.append(len(args) > 5) or overlap(*args))
    grid_estimates(f_sin, t_values, 5, 3, cls, True, 1)
    # all 15 points of the unsaturated t, fewer of the saturated one
    assert 2 * 15 < sum(widened) < 3 * 15


def test_grid_cap_error_comes_before_any_column_finishes(f_sin, monkeypatch):
    # each column is scanned once, at the largest t, before any of its
    # tables: an over-cap t stops the pass at the first column's scan
    scanned, tables = [], []
    scan = transversality.branch_table
    monkeypatch.setattr(transversality, "branch_table",
                        lambda f, z, *args, **kw: scanned.append(z.x) or scan(f, z, *args, **kw))
    monkeypatch.setattr(transversality, "_absorb", lambda *args: tables.append(args))
    monkeypatch.setattr(dynamics, "BRANCH_CAP", 2 ** 12)
    with pytest.raises(ResourceLimit, match=r"at t=40\.0 ") as info:
        grid_estimates(f_sin, [3.0, 40.0, 5.0], 8, 8, classify(f_sin, 0.9), True, 1)
    assert scanned == [0.0] and tables == []
    assert info.value.details["cap"] == 2 ** 12
    assert "t_limit" in info.value.details


def test_n_value_exact_for_base_three():
    # weights 3^-n summed in floating point gave n = 1.0000000000000002 here
    assert n_of_t(GEN3, 3.0, 16, 8, classify(GEN3, 0.9)) == 1.0
    assert m_of_t(GEN3, 4.0, 16, 8, classify(GEN3, 0.9), certified=False).m_value == 17 / 27


def test_weight_sums_exact_over_sixty_levels():
    # branches on levels 3..60: every cone overlaps, so each sum is the whole
    # branch weight, 1 exactly, counted in units of 2^-60 within int64
    f = TrigPolynomial(1.0, ((1, -0.95, 0.0),), 2)
    z = FlowPoint(0.0, 0.0)
    table = branch_table(f, z, 3.0)
    assert max(table.levels) == 60
    profile = table.scan.slope_profile(z.s, 3.0)
    assert transversality._overlap_maxima(table.ell, *profile, 1e9) == 1.0
    assert transversality._sweep_max(table.ell, *profile, 1e9) == 1.0


def _slope_profile(rows):
    """The slope profile (levels, counts, slopes ascending per level) of
    (level, slope) rows, and the same rows as oracle branch tuples."""
    levels = sorted({n for n, _ in rows})
    runs = [sorted(slope for m, slope in rows if m == n) for n in levels]
    profile = (levels, [len(run) for run in runs], np.array([x for run in runs for x in run]))
    return profile, [(n, 0, 0.0, 0.0, slope) for n, slope in rows]


def _count_searches(monkeypatch):
    calls = []
    search = np.searchsorted

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)
    monkeypatch.setattr(transversality.np, "searchsorted", counting)
    return calls


# ell = 2, theta = 1/2: every threshold and slope below is dyadic, so the
# saturation tests fall exactly on their edges.  With widen = 1/4 the pair
# thresholds are 3/4 (levels 1, 1), 5/8 (1, 2) and 1/2 (2, 2): level 2's
# maximum 5/8 is level 1's minimum plus 5/8, level 2 spans exactly 1/2, and
# level 2's maximum minus 5/8 is level 1's minimum 0.
EDGE_ROWS = [(1, 0.0), (1, 0.125), (2, 0.125), (2, 0.375), (2, 0.625)]


@pytest.mark.parametrize("rows, widen, searches", [
    (EDGE_ROWS, 0.25, 0),                                             # every pass saturates
    # one ulp below 0 on level 1: the level-1 pass no longer saturates
    ([(1, -5e-324)] + EDGE_ROWS[1:], 0.25, 2),
    (EDGE_ROWS, 0.0, 4),                                              # no pass saturates
])
def test_overlap_saturation_skip_exact_on_edges(rows, widen, searches, monkeypatch):
    calls = _count_searches(monkeypatch)
    profile, branches = _slope_profile(rows)
    got = transversality._overlap_maxima(2, *profile, 0.5, widen)
    assert len(calls) == searches
    assert got == pair_scan_m(branches, 0.5, 2, widen)


def test_overlap_saturation_skip_matches_pair_scan(monkeypatch):
    # random profiles with slopes placed exactly on fl(s + thr) and
    # fl(s - thr) of another level's slope s, and one ulp beyond: the count
    # equals the quadratic scan's for every widen, and the widen values
    # cover passes that all, some and none saturate
    calls = _count_searches(monkeypatch)
    rng = np.random.default_rng(12)
    seen = set()
    for ell, theta in ((2, 0.3), (3, 0.1)):
        el = float(ell)
        for _ in range(30):
            rows = [(int(n), float(x)) for n, x in
                    zip(rng.integers(1, 5, size=12), rng.uniform(-0.5, 0.5, size=12))]
            for widen in (0.0, 0.05, 0.2, 0.6, 2.0):
                edged = list(rows)
                for n1, s in rows[:4]:
                    n2 = int(rng.integers(1, 5))
                    thr = theta * (el ** -n1 + el ** -n2) + widen
                    for edge, away in ((s + thr, np.inf), (s - thr, -np.inf)):
                        edged += [(n2, edge), (n2, float(np.nextafter(edge, away)))]
                for sample in (rows, edged):
                    profile, branches = _slope_profile(sample)
                    calls.clear()
                    got = transversality._overlap_maxima(ell, *profile, theta, widen)
                    assert got == pair_scan_m(branches, theta, ell, widen)
                    seen.add(min(len(calls), 1) + (len(calls) == 2 * len(profile[0])))
    assert seen == {0, 1, 2}
