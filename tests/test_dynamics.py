import math

import numpy as np
import pytest

from semiflow import (FlowPoint, InvalidArgument, NumericalFailure, ResourceLimit,
                      TrigPolynomial, advance, advance_through, branch_table, extrema,
                      inverse_branches)
from semiflow import dynamics
from semiflow.dynamics import prefix_points

from conftest import parse_violations, random_positive_ceiling
from oracles import (Word, advance_per_point, birkhoff, crossing_simulation, enumerate_branches,
                     slope_profile, word_interval)


def _branch_point(a, x):
    """The preimage of x in the cylinder of the word a: its last prefix point."""
    return prefix_points(x, [a.index], len(a), a.ell)[0, -1]


def test_word_interval_single_letter():
    assert _branch_point(Word((1,), 2), 0.0) == 0.0
    assert _branch_point(Word((2,), 2), 0.0) == 0.5


def test_word_interval_two_letters():
    # points of the cylinder lie in P(1) with image in P(2); checking the
    # four dyadic quarters pins the interval
    a = Word((2, 1), 2)
    left, width = _branch_point(a, 0.0), 2.0 ** -len(a)
    assert left == 0.25
    for k in range(4):
        y = 0.25 * k + 0.1
        in_cyl = left <= y < left + width
        in_p1_to_p2 = (0 <= y < 0.5) and (0.5 <= (2 * y) % 1.0 < 1.0)
        assert in_cyl == in_p1_to_p2


def test_word_interval_all_ones_ell3():
    for n in (1, 3, 5):
        assert _branch_point(Word((1,) * n, 3), 0.0) == 0.0


def test_word_interval_rejects_empty():
    # the empty word has no prefix point, so no cylinder endpoint
    assert prefix_points(0.0, [0], 0, 2).shape == (1, 0)
    with pytest.raises(InvalidArgument):
        word_interval(Word((), 2))


def test_branch_point_single_letters():
    assert _branch_point(Word((2,), 2), 0.3) == pytest.approx(0.65)
    assert _branch_point(Word((1,), 2), 0.3) == pytest.approx(0.15)


def test_branch_point_two_letters():
    y = _branch_point(Word((2, 1), 2), 0.3)
    assert (4 * y) % 1.0 == pytest.approx(0.3, abs=1e-12)
    assert 0.25 <= y < 0.5


def test_branch_point_inverts_tau_n():
    rng = np.random.default_rng(5)
    for _ in range(30):
        ell = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 9))
        letters = tuple(int(rng.integers(1, ell + 1)) for _ in range(n))
        x = float(rng.random())
        y = _branch_point(Word(letters, ell), x)
        fwd = y
        for _ in range(n):
            fwd = (ell * fwd) % 1.0
        assert abs(fwd - x) <= 1e-12 or abs(abs(fwd - x) - 1.0) <= 1e-12
        left, width = _branch_point(Word(letters, ell), 0.0), float(ell) ** -n
        assert left - 1e-12 <= y < left + width + 1e-12


def test_birkhoff_constant(f_const):
    for n in (1, 4, 7):
        a = Word((1,) * n, 2)
        assert birkhoff(f_const, a, 0.37, 0) == pytest.approx(n)
        assert birkhoff(f_const, a, 0.37, 1) == 0.0
        assert birkhoff(f_const, a, 0.37, 2) == 0.0


def test_birkhoff_single_letter(f_sin):
    a = Word((1,), 2)
    assert birkhoff(f_sin, a, 0.0, 0) == pytest.approx(1.0)
    assert birkhoff(f_sin, a, 0.0, 1) == pytest.approx(0.2 * math.pi)


def test_birkhoff_two_letter_hand_sum(f_sin):
    # prefix points of (2,1) at x=0 are 0.5 and 0.25
    a = Word((2, 1), 2)
    assert birkhoff(f_sin, a, 0.0, 0) == pytest.approx(2.2, abs=1e-12)
    assert birkhoff(f_sin, a, 0.0, 1) == pytest.approx(-0.2 * math.pi, abs=1e-12)
    assert birkhoff(f_sin, a, 0.0, 2) == pytest.approx(-0.05 * math.pi ** 2, abs=1e-12)


# The time-t map sends (x, s) to advance(f, x, s + t); the flow count of x by
# time T is the crossing count of advance(f, x, T).


def _flow_count(f, x, T):
    return int(advance(f, x, T)[2])


def test_time_t_map_constant(f_const):
    x, s, _, _ = advance(f_const, 0.3, 2.5)
    assert float(x) == pytest.approx(0.2, abs=1e-12)
    assert float(s) == pytest.approx(0.5, abs=1e-12)


def test_time_t_map_identity_at_zero(f_generic):
    x, s, n, _ = advance(f_generic, 0.123, 0.4 + 0.0)
    assert (float(x), float(s), int(n)) == (0.123, 0.4, 0)


def test_time_t_map_against_crossing_simulation(f_sin):
    x, s, n = crossing_simulation(f_sin, 0.1, 0.2, 5.0)
    x1, s1, n1, _ = advance(f_sin, 0.1, 0.2 + 5.0)
    assert float(x1) == pytest.approx(x, abs=1e-10)
    assert float(s1) == pytest.approx(s, abs=1e-10)
    assert int(n1) == n


def test_flow_count_floor(f_const):
    assert _flow_count(f_const, 0.3, 2.5) == 2
    assert _flow_count(f_const, 0.99, 0.0) == 0


def test_flow_count_inclusive_roof(f_const):
    # a Birkhoff sum exactly equal to the budget counts as crossed
    assert _flow_count(f_const, 0.3, 3.0) == 3


def test_flow_count_sequential_oracle(f_sin):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = float(rng.random())
        T = float(rng.uniform(0, 12))
        _, _, n = crossing_simulation(f_sin, x, 0.0, T)
        assert _flow_count(f_sin, x, T) == n
    assert _flow_count(f_sin, 0.1, 7.0) == crossing_simulation(f_sin, 0.1, 0.0, 7.0)[2]


def test_flow_count_bounds(f_generic):
    f_min, f_max = extrema(f_generic, 0)
    for x in (0.0, 0.2, 0.77):
        for T in (1.0, 5.0, 11.0):
            n = _flow_count(f_generic, x, T)
            assert T / f_max - 1 <= n <= T / f_min


def test_advance_through_matches_crossing_simulation(f_sin):
    rng = np.random.default_rng(5)
    x = rng.random(240)
    s = rng.random(240) * f_sin(x)
    times = [4.5, 0.0, 1.25, 4.5, 0.0, 9.0, 2.75]
    seen = []
    for t, xt, st, _ in advance_through(f_sin, x, s, times):
        seen.append(t)
        for i in range(x.size):
            xr, sr, _ = crossing_simulation(f_sin, x[i], s[i], t)
            assert abs(xt[i] - xr) <= 1e-12
            assert abs(st[i] - sr) <= 1e-12
    assert seen == sorted(set(times))


def test_advance_through_rejects_negative_time():
    # every time a flow is sampled at comes from the config, which refuses a
    # negative or nonfinite one at parse
    for times in ([1.0, -0.5], [float("nan")], [float("inf")]):
        for experiment, key in (("mixing", "eigenfunction_times"), ("correlations", "t_values")):
            assert f"{key} must be" in parse_violations(
                experiment=experiment, params={key: times})


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))


def test_advance_returns_the_landing_heights(f_sin, f_generic, f_const3):
    rng = np.random.default_rng(31)
    x = rng.random(400)
    total = rng.uniform(0.0, 9.0, 400)
    for f in (f_sin, f_generic, f_const3):
        out = advance(f, x, total)
        assert np.array_equal(out[3], f(out[0]))
        assert _same(advance(f, x, total, fx=f(x)), out)
    scalar = advance(f_sin, 0.3, 2.5)
    assert float(scalar[3]) == f_sin(float(scalar[0]))
    assert _same(advance(f_sin, 0.3, 2.5, fx=f_sin(0.3)), scalar)


def test_advance_evaluates_f_once_per_point_and_crossing(f_sin, monkeypatch):
    from semiflow import ceiling

    rng = np.random.default_rng(32)
    x = rng.random(300)
    total = rng.uniform(0.0, 12.0, 300)
    fx = f_sin(x)
    extrema(f_sin, 0)           # certified and cached before counting
    evaluated = []
    original = ceiling.eval

    def counting_eval(f, x, order=0):
        evaluated.append(np.size(x))
        return original(f, x, order)
    monkeypatch.setattr(ceiling, "eval", counting_eval)
    _, _, n, _ = advance(f_sin, x, total)
    crossings = int(np.sum(n))
    assert crossings > x.size
    assert sum(evaluated) == x.size + crossings
    evaluated.clear()
    advance(f_sin, x, total, fx=fx)
    assert sum(evaluated) == crossings


def _same_bits(a, b):
    return len(a) == len(b) and all(
        np.shape(u) == np.shape(v) and np.asarray(u).dtype == np.asarray(v).dtype
        and np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(a, b))


def test_advance_matches_the_per_point_oracle_bitwise(f_sin, f_generic, f_const3):
    rng = np.random.default_rng(34)
    for f in (f_sin, f_generic, f_const3):
        base = rng.random(40)
        y = f.ell * base
        tau = y - np.floor(y)
        roof = np.repeat(f(base), 7)
        # nodes on, just under and just over the first and second roofs, a
        # ROOF_TOL apart at most, several per base point
        near = np.tile([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12], 40)
        cases = [
            (np.repeat(base, 8), rng.uniform(0.0, 9.0, 320)),            # runs of 8
            (rng.choice(base[:5], 300), rng.uniform(0.0, 9.0, 300)),     # runs of any length
            (base[:, None], rng.uniform(0.0, 6.0, (40, 9))),             # broadcast (m, 1)
            (rng.random(300), rng.uniform(0.0, 9.0, 300)),               # distinct points
            # runs of 4 whose neighbours are one ulp away, and of either zero
            (np.repeat(np.stack([base, np.nextafter(base, 2.0)], axis=1).ravel(), 4),
             rng.uniform(0.0, 9.0, 320)),
            (np.repeat([0.0, -0.0, 0.0, -0.0], 3), rng.uniform(0.0, 5.0, 12)),
            (np.repeat(base, 7), roof + near),
            (np.repeat(base, 7), roof + np.repeat(f(tau), 7) + near),
        ]
        for x, total in cases:
            expected = advance_per_point(f, x, total)
            assert _same_bits(advance(f, x, total), expected)
            assert _same_bits(advance(f, x, total, fx=f(x)), expected)
        assert np.any(advance(f, *cases[-1])[2] == 2) and np.any(advance(f, *cases[-1])[2] == 1)
        for x, total in ((0.3, 2.5), (0.0, 0.0), (0.7, float(f(0.7)))):
            expected = advance_per_point(f, x, total)
            assert _same_bits(advance(f, x, total), expected)
            assert _same_bits(advance(f, x, total, fx=f(x)), expected)


def test_advance_through_hands_on_the_heights(f_sin):
    rng = np.random.default_rng(33)
    x = rng.random(200)
    s = rng.random(200) * f_sin(x)
    times = [0.0, 2.5, 1.0, 7.25]
    plain = list(advance_through(f_sin, x, s, times))
    given = list(advance_through(f_sin, x, s, times, fx=f_sin(x)))
    assert len(plain) == len(given) == 4
    for a, b in zip(plain, given):
        assert _same(a, b)
        assert np.array_equal(a[3], f_sin(a[1]))


def test_semigroup_property(f_sin):
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        x = float(rng.random())
        s = float(rng.uniform(0, f_sin(x)))
        t1, t2 = rng.uniform(0.3, 4.0, size=2)
        mx, ms, _, _ = advance(f_sin, x, s + t1)
        # skip near-roof intermediate landings, where crossing order flips
        if ms < 1e-6 or f_sin(mx) - ms < 1e-6:
            continue
        one = advance(f_sin, mx, ms + t2)
        two = advance(f_sin, x, s + t1 + t2)
        assert float(one[0]) == pytest.approx(float(two[0]), abs=1e-9)
        assert float(one[1]) == pytest.approx(float(two[1]), abs=1e-9)
        checked += 1
    assert checked > 150


_TABLE_COLUMNS = ("n", "k", "y", "s", "slopes")


def _table_columns(table):
    return {(n, k): (y, sp, sl) for n, k, y, sp, sl in
            zip(*(getattr(table, name).tolist() for name in _TABLE_COLUMNS))}


def _rows(table):
    """(level, word index, y, s', slope, expansion E) of each branch row."""
    ell = float(table.ell)
    return [(n, k, y, sp, sl, ell ** n) for n, k, y, sp, sl in
            zip(*(getattr(table, name).tolist() for name in _TABLE_COLUMNS))]


def _weight_sum(table):
    """Sum of 1/E over the rows, in row order, as the branches report sums it."""
    return sum(1.0 / e for *_, e in _rows(table))


def test_branches_constant_t25(f_const):
    table, _ = inverse_branches(f_const, FlowPoint(0.2, 0.0), 2.5)
    rows = _rows(table)
    assert len(rows) == 8
    assert {n for n, *_ in rows} == {3}
    assert all(e == 8.0 for *_, e in rows)
    assert all(sl == 0.0 for *_, sl, _ in rows)
    assert all(sp == pytest.approx(0.5) for _, _, _, sp, _, _ in rows)
    assert _weight_sum(table) == 1.0


def test_branches_level_zero_when_s_exceeds_t(f_generic):
    z = FlowPoint(0.4, 0.9)
    table, _ = inverse_branches(f_generic, z, 0.5)
    level0 = [(sp, e) for n, _, _, sp, _, e in _rows(table) if n == 0]
    assert len(level0) == 1
    sp, e = level0[0]
    assert e == 1.0
    assert sp == pytest.approx(0.4)


def test_branches_forward_verification(f_sin):
    z = FlowPoint(0.3, 0.0)
    t = 8.0
    table, _ = inverse_branches(f_sin, z, t)
    assert abs(_weight_sum(table) - 1.0) <= 1e-10
    for _, _, y, sp, _, _ in _rows(table):
        fx, fs, _, _ = advance(f_sin, y, sp + t)
        dx = min(abs(fx - z.x), 1.0 - abs(fx - z.x))
        assert dx <= 1e-10
        assert float(fs) == pytest.approx(z.s, abs=1e-10)


def test_branches_match_flat_enumeration_oracle(f_sin, f_generic):
    for f, z, t in [(f_sin, FlowPoint(0.3, 0.0), 6.0),
                    (f_generic, FlowPoint(0.77, 0.5), 5.0)]:
        got = _rows(inverse_branches(f, z, t)[0])
        want = enumerate_branches(f, z.x, z.s, t)
        assert len(got) == len(want)
        want_set = {(n, k) for n, k, _, _, _ in want}
        got_set = {(n, k) for n, k, *_ in got}
        assert got_set == want_set
        by_key = {(n, k): (y, sp, sl) for n, k, y, sp, sl in want}
        for n, k, got_y, got_sp, got_sl, _ in got:
            y, sp, sl = by_key[(n, k)]
            assert got_y == pytest.approx(y, abs=1e-12)
            assert got_sp == pytest.approx(sp, abs=1e-10)
            assert got_sl == pytest.approx(sl, abs=1e-10)


def test_branch_table_matches_flat_enumeration_oracle(f_generic):
    gen3 = TrigPolynomial(1.3, ((1, 0.0, 0.3), (2, 0.1, 0.0), (3, 0.05, 0.05)), 3)
    for f, z, t in [(f_generic, FlowPoint(0.11, 0.3), 6.5),
                    (gen3, FlowPoint(0.42, 0.0), 4.0),
                    (gen3, FlowPoint(0.7, 0.6), 3.5)]:
        # the table lists its branches level ascending, then by word index,
        # in the oracle's order
        table = branch_table(f, z, t)
        got = _table_columns(table)
        want = {(n, k): (y, sp, sl) for n, k, y, sp, sl in enumerate_branches(f, z.x, z.s, t)}
        assert list(got) == list(want)
        for key, values in got.items():
            assert values == pytest.approx(want[key], abs=1e-12)
        assert table.count == len(want)
        assert table.levels == sorted({n for n, _ in want})
        assert sum(float(f.ell) ** -n for n in table.n.tolist()) == pytest.approx(1.0, abs=1e-10)


def test_column_scan_tables_equal_branch_table(f_sin, f_generic):
    # every (s, t) table of one scan shared by a grid is the single-pair
    # table bit for bit, at s = 0, just under the roof and at t == s (the
    # level-0 branch); the slope profile is the same table's slopes sorted
    # per level
    rng = np.random.default_rng(11)
    gen3 = TrigPolynomial(1.3, ((1, 0.0, 0.3), (2, 0.1, 0.0), (3, 0.05, 0.05)), 3)
    for f in [f_sin, f_generic, gen3] + [random_positive_ceiling(rng) for _ in range(3)]:
        for x in (0.0, 0.37, float(rng.random())):
            height = f(x)
            s_values = [0.0, 0.4 * height, float(np.nextafter(height, 0.0))]
            t_values = [1.5, 3.0, 4.5] + s_values
            scan = branch_table(f, FlowPoint(x, 0.0), 4.5, s_values=s_values,
                                t_values=t_values).scan
            for s in s_values:
                for t in t_values:
                    got = scan.table(s, t)
                    want = branch_table(f, FlowPoint(x, s), t)
                    assert got.levels == want.levels
                    for name in _TABLE_COLUMNS:
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                    levels, counts, slopes = slope_profile(scan, s, t)
                    assert levels == want.levels
                    assert counts == [int(np.sum(want.n == n)) for n in want.levels]
                    assert np.array_equal(slopes, np.concatenate(
                        [np.sort(want.slopes[want.n == n]) for n in want.levels]
                        or [np.zeros(0)]))


def test_branch_table_grid_pairs_validated(f_sin):
    # branch_table takes its pairs on trust: the times are refused at parse
    # when negative, and the transversality grid's flow coordinates lie
    # under the roof by construction
    for experiment, key, value in (("branches", "t", -1.0),
                                   ("transversality", "t_values", [2.0, -1.0])):
        assert f"{key} must be" in parse_violations(experiment=experiment,
                                                    params={key: value})
    z = FlowPoint(0.3, 0.0)
    single = branch_table(f_sin, z, 3.0)
    assert single.scan.table(0.0, 3.0).levels == single.levels


def test_inverse_branches_carry_table_values(f_sin):
    z, t = FlowPoint(0.3, 0.1), 7.0
    cols = _table_columns(branch_table(f_sin, z, t))
    rows = _rows(inverse_branches(f_sin, z, t)[0])
    assert len(rows) == len(cols)
    for n, k, y, sp, sl, _ in rows:
        assert (y, sp, sl) == cols[(n, k)]


def test_branch_enumeration_rejects_target_above_roof():
    # config parsing validates the target; inverse_branches and branch_table
    # take it on trust
    assert parse_violations(
        experiment="branches", ceiling={"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]},
        params={"x": 0.3, "s": 5.0, "t": 4.0}) == (
        "target (x=0.3, s=5.0) is outside the region under the ceiling")


def test_inverse_branches_refuse_a_target_on_the_roof():
    # by the right-limit convention the roof point (x, f(x)) is (tau x, 0);
    # f = 1, and config parsing refuses the target before any branch is sought
    for s, t in ((1.0, 0.0), (1.0, 0.5), (1.0 - 1e-13, 0.5)):
        problems = parse_violations(experiment="branches", params={"x": 0.3, "s": s, "t": t})
        assert problems.startswith(f"target (x=0.3, s={s}) lies on the roof")
        assert "the base point (x=0.6, s=0), so pass that point" in problems


def test_branches_sorted_lexicographically(f_sin):
    table, words = inverse_branches(f_sin, FlowPoint(0.4, 0.1), 4.0)
    letters = [Word.from_index(k, n, table.ell).letters
               for n, k in zip(table.n.tolist(), table.k.tolist())]
    assert letters == sorted(letters)
    assert words == ["".join(map(str, a)) for a in letters]


def test_branch_slope_bound(f_generic):
    bound = max(map(abs, extrema(f_generic, 1))) / (f_generic.ell - 1)
    for slope in inverse_branches(f_generic, FlowPoint(0.25, 0.2), 5.0)[0].slopes.tolist():
        assert abs(slope) <= bound + 1e-12


def test_coboundary_slope_identity(f_cob):
    # slopes telescope: slope = Psi'(x) - ell^-n Psi'(y)
    def dpsi(x):
        return 0.1 * math.pi * math.cos(2 * math.pi * x)

    z = FlowPoint(0.35, 0.0)
    for n, _, y, _, slope, _ in _rows(inverse_branches(f_cob, z, 6.0)[0]):
        expect = dpsi(z.x) - f_cob.ell ** float(-n) * dpsi(y)
        assert slope == pytest.approx(expect, abs=1e-9)


def test_branch_sum_identity_random(f_const):
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = random_positive_ceiling(rng)
        x = float(rng.random())
        s = float(rng.uniform(0, f(x)))
        t = float(rng.uniform(0.5, 5.0))
        table, _ = inverse_branches(f, FlowPoint(x, s), t)
        assert abs(_weight_sum(table) - 1.0) <= 1e-10


def test_branch_cap_raises(f_sin, monkeypatch):
    monkeypatch.setattr(dynamics, "BRANCH_CAP", 2 ** 12)
    with pytest.raises(ResourceLimit) as info:
        inverse_branches(f_sin, FlowPoint(0.2, 0.0), 40.0)
    assert "t_limit" in info.value.details
    with pytest.raises(ResourceLimit):
        branch_table(f_sin, FlowPoint(0.2, 0.0), 40.0)


def test_branch_word_length_limit_raises():
    # f(0) = 0.05, so the chain 11...1 at x = 0 is still open at level 63,
    # whose word indices no longer fit in int64
    f = TrigPolynomial(1.0, ((1, -0.95, 0.0),), 2)
    with pytest.raises(ResourceLimit, match="64-bit word indices") as info:
        branch_table(f, FlowPoint(0.0, 0.0), 3.5)
    assert info.value.details["max_length"] == 62
    assert "t_limit" in info.value.details


def test_exact_roof_hit_assigned_once(f_const):
    # s + S_n - t lands exactly on 0 at level 2: the branch is recorded at
    # that level with s' = 0 and its extensions are not double counted
    table, _ = inverse_branches(f_const, FlowPoint(0.25, 0.5), 2.5)
    assert {n for n, *_ in _rows(table)} == {2}
    assert all(sp == 0.0 for _, _, _, sp, _, _ in _rows(table))
    assert _weight_sum(table) == 1.0


def test_branches_at_the_roof_tolerance_keep_their_weight():
    # the level-4 words k = 7 and 15 have a flow defect just below -1e-12,
    # and their children's d rounds to f(y) - 1e-12: both used to be refused,
    # leaving 14 branches of weight 0.875.  Each chain still has one branch
    f = TrigPolynomial(1.1861147477360419, ((2, -0.23099421481627672, 0.2434516836258529),), 2)
    z = FlowPoint(1 / 3, 0.5453882562650498)
    t = 4.872736312033213
    table, _ = inverse_branches(f, z, t)
    want = {(n, k): (y, sp, sl) for n, k, y, sp, sl in enumerate_branches(f, z.x, z.s, t)}
    got = {(n, k): (y, sp, sl) for n, k, y, sp, sl, _ in _rows(table)}
    assert sorted(got) == sorted(want) and len(got) == 18
    assert {(5, 7), (5, 15), (5, 23), (5, 31)} <= set(got)
    for key, values in got.items():
        assert values == pytest.approx(want[key], abs=1e-12)
    assert _weight_sum(table) == 1.0
    assert np.all(table.s < table.fy)


def test_inverse_branches_refuse_a_table_that_lost_a_row(f_sin, monkeypatch):
    # the weights are counted exactly, in units of ell^-n_max: losing one
    # row of the deepest level leaves the sum one unit short
    real = dynamics.branch_table
    z, t = FlowPoint(0.3, 0.0), 12.0
    full = real(f_sin, z, t)
    n_max = max(full.levels)
    last = int(np.flatnonzero(full.n == n_max)[-1])

    def lossy(*args, **kwargs):
        table = real(*args, **kwargs)
        keep = np.arange(table.count) != last
        return dynamics._BranchTable(*(getattr(table, name)[keep] for name in
                                       ("n", "k", "y", "fy", "s", "slopes")),
                                     table.ell, table.scan)

    monkeypatch.setattr(dynamics, "branch_table", lossy)
    units = 2 ** n_max - 1
    with pytest.raises(NumericalFailure, match=f"weigh {units}/2\\^{n_max}, not 1$") as info:
        inverse_branches(f_sin, z, t)
    assert info.value.details["weight_sum"] == units / 2 ** n_max


def test_inverse_branches_refuse_rows_on_the_roof():
    # at mean 1e77, s + S - t rounds to S = f(y) at level 1: both words would
    # report s' = f(y), on the roof, so neither counts
    f = TrigPolynomial(1e77, (), 2)
    with pytest.raises(NumericalFailure, match="weigh 0/2\\^1, not 1; rounding puts 2 of them "
                                               "at or above the roof") as info:
        inverse_branches(f, FlowPoint(0.3, 0.0), 5.0)
    assert info.value.details["weight_sum"] == 0.0
