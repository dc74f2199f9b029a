import math

import numpy as np
import pytest

from semiflow import (FlowPoint, InvalidArgument, ResourceLimit, TrigPolynomial, branch_table,
                      classify, dynamics, exponent_fit, extrema, m_of_t, n_of_t,
                      transversality)
from semiflow.ceiling import CeilingClass
from semiflow.transversality import grid_estimates

from conftest import parse_violations, random_positive_ceiling
from oracles import (enumerate_branches, line_scan_n, pair_scan_m, per_point_grid,
                     periodic_beta_max, point_m, slope_profile, sweep_max)

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
                        lambda *args: widened.append(len(args) > 6) or overlap(*args))
    grid_estimates(f_sin, t_values, 5, 3, cls, True, 1)
    # one widened pass per column for each unsaturated t, fewer for the
    # saturated one
    assert 2 * 5 < sum(widened) < 3 * 5


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


@pytest.mark.parametrize("chunk, block", [(1, 1), (7, 3), (None, None)])
def test_grid_estimates_bit_equal_at_any_chunk_size(chunk, block, f_sin, monkeypatch):
    # one word (or seven, or the default) per temporary and one flow
    # coordinate (or three, or the default) per mask block: the same maxima,
    # argmax and certified bound as one table per grid point
    t_values = [2.5, 4.0, 5.5]
    if chunk is not None:
        monkeypatch.setattr(transversality, "CHUNK_WORDS", chunk)
        monkeypatch.setattr(transversality, "MASK_BLOCK", block)
    for f in (f_sin, GEN3):
        cls = classify(f, 0.9)
        got = grid_estimates(f, t_values, 3, 5, cls, True, 1)
        assert [(est.m_value, est.m_upper, n_value, est.argmax_x, est.argmax_s)
                for est, n_value in got] == [per_point_grid(f, t, 3, 5, cls, True)
                                             for t in t_values]


def _roof_edge_times(f, x, s, rng):
    """Flow times that put a word of the column over x on a fiber edge at
    the flow coordinate s: a with fl(s + S) - a = 0, its preimage exactly on
    the base, and the adjacent floats t1 < t2 between which fl(s + S) - t
    crosses -ROOF_TOL, so that the word is a branch at t1 and open at t2."""
    scan = branch_table(f, FlowPoint(x, 0.0), 4.0).scan
    a = s + float(rng.choice(scan.S[scan.n >= 2]))
    t = a + dynamics.ROOF_TOL
    while a - t < -dynamics.ROOF_TOL:
        t = float(np.nextafter(t, -np.inf))
    while a - float(np.nextafter(t, np.inf)) >= -dynamics.ROOF_TOL:
        t = float(np.nextafter(t, np.inf))
    return [a, t, float(np.nextafter(t, np.inf))]


@pytest.mark.parametrize("ell", [2, 3])
def test_grid_equals_per_point_oracle_with_s_on_roof_edges(ell):
    # random ceilings, with times that move a word across the roof at one
    # grid point, so that words enter and leave between the flow coordinates
    # of a block: the grid pass equals one table per point, at one worker
    # and at two
    rng = np.random.default_rng(30 + ell)
    nx, ns = 3, 4
    for _ in range(3):
        g = random_positive_ceiling(rng)
        f = TrigPolynomial(g.mean_coeff, g.harmonics, ell)
        cls = classify(f, 0.9)
        x = int(rng.integers(nx)) / nx
        s = int(rng.integers(1, ns)) * f(x) / ns
        t_values = _roof_edge_times(f, x, s, rng)
        words = [(table.n.tolist(), table.k.tolist())
                 for table in (branch_table(f, FlowPoint(x, s), t) for t in t_values[1:])]
        assert words[0] != words[1]
        want = [per_point_grid(f, t, nx, ns, cls, True) for t in t_values]
        for workers in (1, 2):
            got = grid_estimates(f, t_values, nx, ns, cls, True, workers)
            assert [(est.m_value, est.m_upper, n_value, est.argmax_x, est.argmax_s)
                    for est, n_value in got] == want


def test_grid_block_deeper_than_most_of_its_flow_coordinates():
    # GEN3 at t = 3.5 on a 4 x 3 grid: in every column only the base section
    # reaches level 4, so the block counts in units of 3^-4 where the other
    # two flow coordinates' own tables count in units of 3^-3
    cls = classify(GEN3, 0.9)
    for i in range(4):
        x = i / 4
        assert [max(branch_table(GEN3, FlowPoint(x, j * GEN3(x) / 3), 3.5).levels)
                for j in range(3)] == [4, 3, 3]
    want = per_point_grid(GEN3, 3.5, 4, 3, cls, True)
    for workers in (1, 2):
        est, n_value = grid_estimates(GEN3, [3.5], 4, 3, cls, True, workers)[0]
        assert (est.m_value, est.m_upper, n_value, est.argmax_x, est.argmax_s) == want


def test_overlap_searches_each_window_once_per_block(f_sin, monkeypatch):
    # one search per target level and chunk of references serves every flow
    # coordinate of a block: at most two needles per level and word of the
    # block, under a third of the needles of one search per grid point
    cls = classify(f_sin, 0.9)
    t_values, nx, ns = [6.0, 8.0], 4, 8
    block = per_point = 0
    for i in range(nx):
        x = i / nx
        s_values = [j * f_sin(x) / ns for j in range(ns)]
        scan = branch_table(f_sin, FlowPoint(x, 0.0), max(t_values), s_values=s_values,
                            t_values=t_values).scan
        for t in t_values:
            masks = [dynamics._valid(s, t, scan.S, scan.S_parent)[0] for s in s_values]
            union = np.any(masks, axis=0)
            block += 2 * len(np.unique(scan.n[union])) * int(union.sum())
            per_point += sum(2 * len(np.unique(scan.n[mask])) * int(mask.sum())
                             for mask in masks)
    needles = []
    search = np.searchsorted
    monkeypatch.setattr(transversality.np, "searchsorted",
                        lambda a, v, **kw: needles.append(np.size(v)) or search(a, v, **kw))
    grid_estimates(f_sin, t_values, nx, ns, cls, False, 1)
    assert sum(needles) <= block < per_point / 3


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
    profile = slope_profile(table.scan, z.s, 3.0)
    valid = np.ones((len(profile[2]), 1), dtype=bool)
    assert transversality._overlap_maxima(table.ell, *profile, valid, 1e9) == [1.0]
    assert transversality._sweep_maxima(table.ell, *profile, valid, 1e9) == [1.0]


def _block(rows, valid):
    """The kernel arguments for (level, slope) rows with their (row, flow
    coordinate) validity mask: the rows sorted by level and then slope, the
    mask permuted with them.  Also each flow coordinate's valid rows as
    oracle branch tuples."""
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    rows, valid = [rows[i] for i in order], valid[order]
    levels = sorted({n for n, _ in rows})
    counts = [sum(1 for m, _ in rows if m == n) for n in levels]
    words = (levels, counts, np.array([x for _, x in rows]), valid)
    return words, [[(n, 0, 0.0, 0.0, x) for (n, x), v in zip(rows, col) if v]
                   for col in valid.T]


def _masks(rng, size):
    """Validity masks over ``size`` rows: all valid, and five random ones
    (one nearly empty, one nearly full)."""
    return np.column_stack([np.ones(size, dtype=bool)]
                           + [rng.random(size) < p for p in (0.05, 0.4, 0.6, 0.8, 0.95)])


def _profile(branches):
    """The slope profile (levels, counts, slopes ascending per level) of
    oracle branch tuples."""
    levels = sorted({b[0] for b in branches})
    runs = [sorted(b[4] for b in branches if b[0] == n) for n in levels]
    return levels, [len(run) for run in runs], np.array([x for run in runs for x in run])


def _check_block(ell, rows, valid, theta, widen, monkeypatch):
    """At every chunk size, the overlap kernel gives each flow coordinate
    the quadratic scan of its own valid rows, and the sweep kernel the
    per-table sweep of them."""
    words, per_s = _block(rows, valid)
    want_m = [pair_scan_m(branches, theta, ell, widen) for branches in per_s]
    want_n = [sweep_max(ell, *_profile(branches), 2.0 * theta) for branches in per_s]
    for chunk in (1, 3, transversality.CHUNK_WORDS):
        monkeypatch.setattr(transversality, "CHUNK_WORDS", chunk)
        assert transversality._overlap_maxima(ell, *words, theta, widen) == want_m
        assert transversality._sweep_maxima(ell, *words, 2.0 * theta) == want_n


# ell = 2, theta = 1/2: every threshold and slope below is dyadic, so the
# windows fall exactly on their edges.  With widen = 1/4 the pair
# thresholds are 3/4 (levels 1, 1), 5/8 (1, 2) and 1/2 (2, 2): level 2's
# maximum 5/8 is level 1's minimum plus 5/8, level 2 spans exactly 1/2, and
# level 2's maximum minus 5/8 is level 1's minimum 0.
EDGE_ROWS = [(1, 0.0), (1, 0.125), (2, 0.125), (2, 0.375), (2, 0.625)]


@pytest.mark.parametrize("rows, widen", [
    (EDGE_ROWS, 0.25),                      # each window reaches a whole level
    ([(1, -5e-324)] + EDGE_ROWS[1:], 0.25),  # one ulp below 0: level 1 no longer does
    (EDGE_ROWS, 0.0),                       # no window reaches a whole level
])
def test_overlap_saturation_skip_exact_on_edges(rows, widen, monkeypatch):
    valid = _masks(np.random.default_rng(len(rows) + int(4 * widen)), len(rows))
    _check_block(2, rows, valid, 0.5, widen, monkeypatch)


def _whole_level_windows(ell, levels, counts, slopes, theta, widen):
    """The target levels whose window, from every reference, is the whole
    level: fl(lo + thr) >= max and fl(hi - thr) <= min at both ends of each
    reference level's run (fl(x +- thr) is monotone in x)."""
    el = float(ell)
    ends = np.cumsum(counts)
    runs = list(zip([el ** -n for n in levels], slopes[ends - counts].tolist(),
                    slopes[ends - 1].tolist()))
    return sum(all(lo1 + (theta * (w1 + w2) + widen) >= hi2
                   and hi1 - (theta * (w1 + w2) + widen) <= lo2 for w1, lo1, hi1 in runs)
               for w2, lo2, hi2 in runs)


def test_overlap_saturation_skip_matches_pair_scan(monkeypatch):
    # random rows with slopes placed exactly on fl(s + thr) and fl(s - thr)
    # of another level's slope s, and one ulp beyond, under random masks:
    # each flow coordinate's count equals the quadratic scan of its own rows
    # for every widen, and the widen values cover blocks where every, some
    # and no target level lies whole in every window
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
                    _check_block(ell, sample, _masks(rng, len(sample)), theta, widen,
                                 monkeypatch)
                    words = _block(sample, np.ones((len(sample), 1), dtype=bool))[0]
                    whole = _whole_level_windows(ell, *words[:3], theta, widen)
                    seen.add(min(whole, 1) + (whole == len(words[0])))
    assert seen == {0, 1, 2}


def test_block_denominator_may_exceed_every_flow_coordinates(monkeypatch):
    # ell = 3: the block's deepest level holds no row valid anywhere, so each
    # count is in units finer than any flow coordinate's own; dividing once
    # still gives each the correctly rounded value of its own profile
    rows = [(1, 0.0), (1, 0.05), (2, 0.02), (2, 0.3), (3, 0.01), (5, 0.04)]
    valid = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, 0, 0], [0, 0, 0]],
                     dtype=bool)
    _check_block(3, rows, valid, 0.1, 0.0, monkeypatch)
