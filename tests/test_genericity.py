import numpy as np
import pytest

from semiflow import FlowPoint, InvalidArgument, TrigPolynomial, branch_table, classify
from semiflow.dynamics import prefix_points
from semiflow.genericity import (BumpDirection, PerturbationFamily, _all_slopes,
                                 _weighted_sum, bad_set_probe, combination_size, g_matrix,
                                 jacobian, slope_clusters)

from conftest import parse_violations
from oracles import (GenericityParams, Word, birkhoff, bump_deriv, bump_family, cluster_words,
                     default_mu, default_params, per_letter_g_matrix, prefix_refinement,
                     window_cluster_scan, word_interval)

GENERIC_Y = 0.3183098861837907  # irrational, keeps the orbit order trivial


def _order_separated_family(base, nu=3, p=1, amplitude=2.0):
    mu = default_mu(2, nu, p)
    probe = bump_family(GENERIC_Y, nu, 1e-9, mu, amplitude=amplitude, ell=2)
    fam = bump_family(GENERIC_Y, nu, probe.eps_max * 0.5, mu,
                      amplitude=amplitude, ell=2)
    return fam, PerturbationFamily(base=base, directions=fam.directions, epsilon=1e-7)


def test_clusters_constant_all_words(f_const):
    cls = classify(f_const, 0.9)
    for n in (4, 6, 8):
        rep = slope_clusters(f_const, n, (1,), cls, 8.0)
        assert rep.max_cluster == 2 ** n
        assert len(cluster_words(f_const, n, Word((1,), 2), rep.window)) == 2 ** n


def test_clusters_coboundary_all_words(f_cob):
    # telescoped slopes stay within 2 ell^-n max|Psi'| of each other, well
    # inside the 8 theta_K window
    cls = classify(f_cob, 0.9)
    assert 2 * 0.1 * np.pi <= 8 * cls.theta_K
    rep = slope_clusters(f_cob, 8, (1, 2), cls, 8.0)
    assert rep.max_cluster == 2 ** 8


def test_clusters_match_brute_window_scan(f_generic):
    cls = classify(f_generic, 0.9)
    for n, factor in ((8, 8.0), (8, 0.5), (10, 0.25)):
        rep = slope_clusters(f_generic, n, (1,), cls=cls,
                             window_factor=factor)
        x_c = 0.0
        slopes = _all_slopes(f_generic, x_c, n)
        brute = window_cluster_scan(slopes, factor * cls.theta_K * 2.0 ** -n)
        assert rep.max_cluster == brute


def test_cluster_words_pairwise_within_window(f_generic):
    rep = slope_clusters(f_generic, 8, (2,), classify(f_generic, 0.9),
                         window_factor=0.5)
    x_c, _ = word_interval(Word((2,), 2))
    words = cluster_words(f_generic, 8, Word((2,), 2), rep.window)
    slopes = [birkhoff(f_generic, w, x_c, 1) for w in words]
    assert max(slopes) - min(slopes) <= rep.window + 1e-12
    assert len(words) == rep.max_cluster
    assert 1 <= rep.max_cluster <= 2 ** 8


def test_cluster_window_scaling(f_generic):
    cls = classify(f_generic, 0.9)
    r6 = slope_clusters(f_generic, 6, (1,), cls, 8.0)
    r12 = slope_clusters(f_generic, 12, (1,), cls, 8.0)
    assert r12.window == pytest.approx(r6.window * 2.0 ** -6, rel=1e-12)


def test_cluster_monotone_in_window(f_generic):
    cls = classify(f_generic, 0.9)
    wide = slope_clusters(f_generic, 10, (1,), cls, window_factor=8.0)
    narrow = slope_clusters(f_generic, 10, (1,), cls, window_factor=2.0)
    assert narrow.max_cluster <= wide.max_cluster


def test_cluster_cap():
    # config parsing caps ell^n at 2^20 words: at ell = 3 the first level
    # beyond it is n = 13
    problems = parse_violations(experiment="genericity",
                                ceiling={"ell": 3, "mean": 1.0, "harmonics": []},
                                params={"cluster_n_values": [12, 13]})
    assert problems == "cluster_n_values entry n = 13: ell^n = 3^13 exceeds the cluster cap 1048576"


def test_g_matrix_zero_for_equal_words(f_const):
    _, fam = _order_separated_family(f_const)
    w = Word((1, 2, 1, 1), 2).index
    G = g_matrix(0.3, [w, w, w], 4, fam)
    assert np.all(G == 0.0)


def test_g_matrix_zero_for_constant_derivative_directions(f_const):
    # a bump of radius 1.5 holds the whole circle (offsets lie in [-1/2, 1/2))
    # inside the inner third of its support, so its derivative is its
    # plateau at every point and every slope difference cancels exactly
    flat = BumpDirection(center=0.5, radius=1.5, deriv_plateau=2.5)
    xs = np.linspace(0.0, 1.0, 1001)
    assert np.all(bump_deriv(flat, xs) == 2.5)
    fam = PerturbationFamily(base=f_const, directions=(flat,), epsilon=0.0)
    G = g_matrix(0.3, [Word(a, 2).index for a in ((1, 1), (2, 1), (1, 2))], 2, fam)
    assert G.shape == (2, 1)
    assert np.all(G == 0.0)


def test_g_matrix_base_independence(f_const, f_generic):
    fam_data, fam1 = _order_separated_family(f_const)
    fam2 = PerturbationFamily(base=f_generic, directions=fam_data.directions, epsilon=1e-7)
    words = [Word((1, 1, 1, 2, 1), 2).index, Word((2, 1, 2, 1, 2), 2).index]
    assert np.array_equal(g_matrix(0.31, words, 5, fam1), g_matrix(0.31, words, 5, fam2))


@pytest.mark.parametrize("ell", [2, 3])
def test_g_matrix_equals_per_letter_oracle(ell):
    rng = np.random.default_rng(ell)
    base = TrigPolynomial(1.0, (), ell)
    centers = rng.random(5)
    dirs = tuple(BumpDirection(center=float(c), radius=0.12, deriv_plateau=20.0)
                 for c in centers)
    fam = PerturbationFamily(base=base, directions=dirs, epsilon=0.0)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        size = int(rng.integers(2, 8))
        sigma = [Word(tuple(rng.integers(1, ell + 1, size=n)), ell) for _ in range(size)]
        x = float(rng.random())
        G = g_matrix(x, [w.index for w in sigma], n, fam)
        assert G.shape == (size - 1, len(dirs))
        assert np.array_equal(G, per_letter_g_matrix(x, sigma, fam))
    # cylinder endpoints k/ell^n, as the probe uses them
    for k in range(ell ** 3):
        x = k / ell ** 3
        sigma = rng.choice(ell ** 6, 4, replace=False)
        words = [Word.from_index(int(j), 6, ell) for j in sigma]
        assert np.array_equal(g_matrix(x, sigma, 6, fam), per_letter_g_matrix(x, words, fam))
    # a lone reference word gives an empty p x m matrix with p = 0
    assert g_matrix(0.3, [Word((1, 2), ell).index], 2, fam).shape == (0, len(dirs))


def test_probe_slopes_equal_birkhoff_sums(f_generic):
    # the probe's base slope differences, read from one array of prefix
    # points, match the scalar Birkhoff sums bit for bit
    rng = np.random.default_rng(11)
    f3 = TrigPolynomial(1.3, ((1, 0.1, 0.05), (2, 0.02, -0.03)), 3)
    for f in (f_generic, f3):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            words = [Word(tuple(rng.integers(1, f.ell + 1, size=n)), f.ell) for _ in range(6)]
            x = float(rng.random())
            k = [w.index for w in words]
            slopes = _weighted_sum(f(prefix_points(x, k, n, f.ell), 1), f.ell)
            assert slopes.tolist() == [birkhoff(f, w, x, 1) for w in words]


@pytest.mark.parametrize("ell", [2, 3])
def test_scan_and_cluster_slopes_equal_prefix_point_slopes(ell, monkeypatch):
    # one word, one slope: summed from the prefix points of its index, a
    # branch row's slope is the level scan's bit for bit, and the cluster
    # slopes at a base word (k, m) are _all_slopes at k/ell^m
    import semiflow.genericity as genericity
    f = {2: TrigPolynomial(1.0, ((1, 0.0, 0.3), (2, 0.1, 0.0)), 2),
         3: TrigPolynomial(1.3, ((1, 0.1, 0.05), (2, 0.02, -0.03)), 3)}[ell]
    rng = np.random.default_rng(20 + ell)
    for _ in range(10):
        x, t = float(rng.random()), float(rng.uniform(1.0, 6.0))
        table = branch_table(f, FlowPoint(x, 0.0), t)
        for n in table.levels:
            rows = table.n == n
            pts = prefix_points(x, table.k[rows], n, ell)
            assert np.array_equal(_weighted_sum(f(pts, 1), ell), table.slopes[rows])
            if n:
                assert np.array_equal(pts[:, -1], table.y[rows])
    endpoints = []
    monkeypatch.setattr(genericity, "_all_slopes",
                        lambda f, x, n: endpoints.append(x) or _all_slopes(f, x, n))
    cls = classify(f, 0.9)
    for _ in range(5):
        m = int(rng.integers(1, 8))
        letters = tuple(int(a) for a in rng.integers(1, ell + 1, size=m))
        k = Word(letters, ell).index
        slope_clusters(f, 5, letters, cls, 8.0)
        x_c = endpoints[-1]
        assert x_c == k / ell ** m == prefix_points(0.0, [k], m, ell)[0, -1]
        every_word = prefix_points(x_c, np.arange(ell ** 5), 5, ell)
        assert np.array_equal(_all_slopes(f, x_c, 5), _weighted_sum(f(every_word, 1), ell))


def test_g_matrix_evaluates_the_profile_once(f_const, monkeypatch):
    import semiflow.genericity as genericity
    calls = []
    profile = genericity._profile
    monkeypatch.setattr(genericity, "_profile", lambda u: calls.append(np.shape(u)) or profile(u))
    dirs = tuple(BumpDirection(center=c, radius=0.05, deriv_plateau=8.0)
                 for c in (0.1, 0.4, 0.7))
    fam = PerturbationFamily(base=f_const, directions=dirs, epsilon=0.0)
    g_matrix(0.25, [3, 50, 77, 101, 127], 7, fam)
    # one call, on every direction's offsets from every prefix point
    assert calls == [(3, 5 * 7)]


def test_jacobian_examples():
    assert jacobian(np.array([[1.0, 0, 0], [0, 1, 0]])) == pytest.approx(1.0)
    assert jacobian(np.array([[2.0, 0, 0], [0, 3, 0]])) == pytest.approx(6.0)
    assert jacobian(np.array([[1.0, 1, 0], [1, 1, 0]])) == 0.0
    with pytest.raises(InvalidArgument):
        jacobian(np.zeros((3, 2)))


def test_jacobian_rotation_invariance():
    rng = np.random.default_rng(21)
    L = rng.standard_normal((3, 6))
    base = jacobian(L)
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(A)
        assert jacobian(Q @ L) == pytest.approx(base, rel=1e-9)


def test_bump_family_example_nu1():
    fam = bump_family(0.3, 1, 0.01, 4, ell=2)
    assert [d.center for d in fam.directions] == [0.15, 0.65]
    for d in fam.directions:
        assert float(bump_deriv(d, d.center)) == pytest.approx(2.0)
        inner_edge = d.center + d.radius / 3.0 * 0.999
        assert float(bump_deriv(d, inner_edge)) == pytest.approx(2.0)
    xs = np.linspace(0, 1, 40001)
    for d in fam.directions:
        assert float(np.max(np.abs(bump_deriv(d, xs)))) < 2 * 2.0


def test_bump_family_f_independent():
    a = bump_family(0.3, 2, 1e-3, 5, ell=2)
    b = bump_family(0.3, 2, 1e-3, 5, ell=2)
    assert a.directions == b.directions


def test_bump_family_predecessor_bound():
    # at y = 0 the orbit order is maximally degenerate; the predecessor
    # count still stays within nu + 1
    for y, nu in ((0.0, 2), (0.0, 3), (GENERIC_Y, 3)):
        fam = bump_family(y, nu, 1e-6, nu + 2, ell=2)
        assert all(len(v) <= nu + 1 for v in fam.predecessors.values())


def test_bump_family_eps_guard():
    with pytest.raises(InvalidArgument) as info:
        bump_family(0.3, 1, 0.4, 4, ell=2)
    assert "maximal admissible" in str(info.value)


def test_bump_supports_disjoint():
    fam = bump_family(GENERIC_Y, 3, 1e-4, 7, ell=2)
    xs = np.linspace(0, 1, 8192, endpoint=False)
    coverage = np.zeros_like(xs)
    for d in fam.directions:
        coverage += (np.abs(((xs - d.center + 0.5) % 1.0) - 0.5) < d.radius)
    assert coverage.max() <= 1


def test_jacobian_lower_bound_on_neighborhood(f_const):
    # the order-separated doubled family puts the slope-difference Jacobian
    # above 1 at every sampled point of the separation neighborhood
    fam_data, fam = _order_separated_family(f_const, nu=3, p=1, amplitude=2.0)
    maximal = fam_data.maximal_in(list(fam_data.words))
    aprime = maximal[:2]
    rng = np.random.default_rng(17)
    n = 6
    for _ in range(20):
        x = (fam_data.y + (rng.random() - 0.5) * 2 * fam_data.neighborhood[1] * 0.9) % 1.0
        sigma = [Word(a.letters + tuple(rng.integers(1, 3, size=n - fam_data.nu)), 2)
                 for a in aprime]
        assert jacobian(g_matrix(x, [w.index for w in sigma], n, fam)) >= 1.0


def test_probe_trend_and_frozen_fractions(f_const):
    cls = classify(f_const, 0.9)
    centers = [0.05, 0.21, 0.37, 0.53, 0.69, 0.85]
    dirs = tuple(BumpDirection(center=c, radius=0.055, deriv_plateau=20.0) for c in centers)
    fam = PerturbationFamily(base=f_const, directions=dirs, epsilon=0.05)
    fracs = {}
    for n in (4, 6, 8):
        res = bad_set_probe(fam, n, 400, 7, cls, combos=8)
        fracs[n] = res.fraction
        assert res.ci_low <= res.fraction <= res.ci_high
    # frozen from the fixed-seed run of this configuration
    assert fracs[4] == pytest.approx(1.0, abs=1e-12)
    assert fracs[6] == pytest.approx(0.965, abs=1e-12)
    assert fracs[8] == pytest.approx(0.135, abs=1e-12)
    assert fracs[4] >= fracs[6] >= fracs[8]


def test_probe_shared_class_gives_same_result(f_sin, monkeypatch):
    # the probe reads theta_K from the class it is given and never classifies
    import semiflow.genericity as genericity
    dirs = tuple(BumpDirection(center=c, radius=0.055, deriv_plateau=20.0)
                 for c in (0.05, 0.21, 0.37, 0.53, 0.69, 0.85))
    fam = PerturbationFamily(base=f_sin, directions=dirs, epsilon=0.05)
    cls = classify(f_sin, 0.9)
    own = bad_set_probe(fam, 6, 200, 3, cls, combos=8)
    monkeypatch.setattr(genericity, "classify", None)
    assert bad_set_probe(fam, 6, 200, 3, cls, combos=8) == own
    assert own.window == 10.0 * cls.theta_K * 2.0 ** -6


@pytest.mark.parametrize("n", [0, 1, 2, 63, 70])
def test_probe_rejects_levels_without_room_for_a_combination(n):
    # ell = 2, p = 5: a combination needs ell^n >= 6 words, and word
    # indices are int64; with the probe on, config parsing refuses every
    # other level, and the schema refuses n = 0 before any rule reads the ceiling
    assert combination_size(2) == 5
    problems = parse_violations(experiment="genericity",
                                params={"probe": True, "probe_n_values": [4, n]})
    assert problems.startswith(f"probe level n = {n}" if n else "probe_n_values must be")
    assert ";" not in problems


def test_probe_zero_directions(f_const):
    fam = PerturbationFamily(base=f_const, directions=(), epsilon=0.0)
    res = bad_set_probe(fam, 4, 100, 1, classify(f_const, 0.9), combos=64)
    assert res.fraction in (0.0, 1.0)
    # the constant base has all slope differences zero, inside every window
    assert res.fraction == 1.0


def test_probe_rejects_underpowered_family(f_const):
    dirs = (BumpDirection(center=0.3, radius=0.05, deriv_plateau=8.0),)
    fam = PerturbationFamily(base=f_const, directions=dirs, epsilon=0.01)
    with pytest.raises(InvalidArgument):
        bad_set_probe(fam, 4, 50, 1, classify(f_const, 0.9), combos=8)


def test_default_params_chain_valid():
    # the paper's chain validates for every ell here, and its p is the
    # combination size the probe derives from ell alone
    for ell in range(2, 200):
        params = default_params(ell)
        assert params.validate(ell) == []
        assert 0.0 < params.delta < 1.0
        assert params.p == combination_size(ell)
    assert [combination_size(ell) for ell in range(2, 11)] == [5] + [4] * 8


def test_params_validation_catches_bad_chain():
    params = default_params(2)
    bad = GenericityParams(rho=params.rho, gamma=params.gamma, alpha=params.alpha,
                           beta=params.beta, p=1, nu=params.nu, delta=params.delta,
                           N=params.N)
    assert any("beta" in p for p in bad.validate(2))


def test_family_positivity_guard(f_const):
    big = (BumpDirection(center=0.5, radius=0.3, deriv_plateau=100.0),)
    with pytest.raises(Exception):
        PerturbationFamily(base=f_const, directions=big, epsilon=0.5)


def test_prefix_refinement_partitions_cluster(f_generic):
    c = Word((1,), 2)
    rep = slope_clusters(f_generic, 8, c.letters, classify(f_generic, 0.9), window_factor=1.0)
    classes = prefix_refinement(f_generic, 8, c, rep.window, 3)
    words = [w for cls_ in classes for w in cls_]
    members = cluster_words(f_generic, 8, c, rep.window)
    assert len(members) == rep.max_cluster
    assert sorted(w.letters for w in words) == sorted(w.letters for w in members)
    prefixes = [cls_[0].letters[:3] for cls_ in classes]
    assert len(prefixes) == len(set(prefixes))
    for cls_ in classes:
        assert len({w.letters[:3] for w in cls_}) == 1
    sizes = [len(c) for c in classes]
    assert sizes == sorted(sizes, reverse=True)


def test_prefix_refinement_rejects_bad_length(f_generic):
    rep = slope_clusters(f_generic, 6, (1,), classify(f_generic, 0.9), 8.0)
    with pytest.raises(InvalidArgument):
        prefix_refinement(f_generic, 6, Word((1,), 2), rep.window, 7)
