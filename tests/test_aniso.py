import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow import aniso
from semiflow.aniso import (STRONG, WEAK, ConeSpec, DomainViolation, GridFunction2D,
                            InvalidArgument, Polarization, aniso_norm,
                            embedding_check, make_grid, mask_bank,
                            partition_defect)
from semiflow.cli import main
from semiflow.errors import PreconditionViolation
from semiflow.smooth import plateau

from conftest import traced_peak
from oracles import (angular_profile, band_norms, cone_filter, mask_sum,
                     mask_value, paired_band_inner, strictly_precedes,
                     transversal_orthogonality, weighted_norm)


@pytest.fixture(scope="module")
def theta():
    return Polarization(ConeSpec(-0.5, 0.5), ConeSpec(2.0, -2.0))


@pytest.fixture(scope="module")
def grid():
    return make_grid(1.0, 1.0, 64)


@pytest.fixture(scope="module")
def bank(theta, grid):
    return mask_bank(theta, grid)


def _window(grid):
    X, Y = grid.coords()
    return plateau(X, 0.55, 0.95) * plateau(Y, 0.55, 0.95)


def _wrap(grid, values):
    return GridFunction2D(values=values, spacing=grid.spacing, rect=grid.rect)


def test_cone_arcs_and_intersection():
    flat = ConeSpec(-0.5, 0.5)
    steep = ConeSpec(2.0, -2.0)
    mid = ConeSpec(0.4, 2.5)
    assert not flat.intersects(steep)
    assert flat.intersects(mid)
    assert steep.intersects(mid)
    assert flat.intersects(flat)


def test_polarization_requires_disjoint_cones():
    with pytest.raises(InvalidArgument):
        Polarization(ConeSpec(-0.5, 0.5), ConeSpec(0.4, -2.0))


def test_angular_profiles_plateaus(theta):
    # 1 on the plus cone, 0 on the minus cone, complementary by definition
    angles_plus = np.arctan(np.linspace(-0.5, 0.5, 9))
    angles_minus = np.arctan(np.linspace(2.0, 10.0, 5))
    assert np.all(theta.phi_plus(angles_plus) == 1.0)
    assert np.all(theta.phi_plus(angles_minus) == 0.0)
    assert np.all(theta.phi_plus(np.array([math.pi / 2])) == 0.0)
    beta = np.linspace(0, math.pi, 64, endpoint=False)
    total = angular_profile(theta, "+", beta) + angular_profile(theta, "-", beta)
    assert np.max(np.abs(total - 1.0)) == 0.0


def test_mask_at_origin(theta, grid):
    for sigma in ("+", "-"):
        assert mask_value(theta, 0, sigma, 0.0, 0.0) == 0.5
    assert mask_value(theta, 3, "+", 0.0, 0.0) == 0.0


def test_mask_deep_inside_plus_cone(theta):
    # |xi| = 1.5 * 2^n on the horizontal axis: full annulus weight, plus
    # profile 1, minus profile 0
    for n in (2, 4):
        xi = 1.5 * 2.0 ** n
        assert mask_value(theta, n, "+", xi, 0.0) == 1.0
        assert mask_value(theta, n, "-", xi, 0.0) == 0.0


def test_partition_of_unity_on_grid(bank):
    assert partition_defect(bank) <= 1e-12


def test_partition_of_unity_random_frequencies(theta):
    rng = np.random.default_rng(8)
    xi = rng.uniform(-200, 200, size=(500, 2))
    total = np.zeros(500)
    for n in range(0, 12):
        for sigma in ("+", "-"):
            total += mask_value(theta, n, sigma, xi[:, 0], xi[:, 1])
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_parseval_identity(grid):
    rng = np.random.default_rng(4)
    u = _wrap(grid, _window(grid) * rng.standard_normal((64, 64)))
    F = u.fft()
    space = np.sum(np.abs(u.values) ** 2) * u.spacing ** 2
    freq = np.sum(np.abs(F) ** 2) * u.spacing ** 2 / u.N ** 2
    assert freq == pytest.approx(space, rel=1e-12)


def test_norm_zero_function(bank, grid):
    u = _wrap(grid, np.zeros((64, 64)))
    assert aniso_norm(u, bank)[0] == 0.0


def test_single_mode_norm_weight(bank, grid):
    # a mode with |xi| in [2^n, 1.5*2^n] inside the plus cone is covered by
    # band n alone, so the norm picks up exactly the 2^(pn) weight
    n = 3
    step_xi = 2 * math.pi / (grid.N * grid.spacing)
    k = round(1.25 * 2.0 ** n / step_xi)
    xi = k * step_xi
    assert 2.0 ** n <= xi <= 1.5 * 2.0 ** n
    X, _ = grid.coords()
    u = _wrap(grid, _window(grid) * np.cos(xi * X))
    ratio = aniso_norm(u, bank)[0] / u.l2_norm()
    assert ratio == pytest.approx(2.0 ** n, rel=0.02)


def test_weak_norm_dominated(bank, grid):
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = _wrap(grid, _window(grid) * rng.standard_normal((64, 64)))
        strong, weak = aniso_norm(u, bank)
        assert weak <= strong + 1e-12


@pytest.mark.parametrize("margin", [0.0, 0.5, 1.9])
@pytest.mark.parametrize("grid_n", [32, 64, 128])
def test_norms_report_weak_le_strong_without_slack(grid_n, margin, capsys):
    # each WEAK weight is at most its STRONG one, a product by sq >= 0 rounds
    # monotonically, both sums add the bands in one order and sqrt is
    # monotone, so the report compares the norms of its enveloped modes exactly
    assert main(["norms", "--set", f"params.grid_n={grid_n}", "--set",
                 f"params.slope_margin={margin}", "--set", "params.num_functions=20",
                 "--set", f"seed={grid_n}"]) == 0
    rows = json.loads(capsys.readouterr().out)["payload"]["functions"]
    assert all(r["weak_norm"] <= r["strong_norm"] and r["weak_le_strong"] for r in rows)


def test_embedding_bound_random_sweep(bank, grid):
    rng = np.random.default_rng(10)
    win = _window(grid)
    for _ in range(100):
        u = _wrap(grid, win * rng.standard_normal((64, 64)))
        assert embedding_check(u, aniso_norm(u, bank)[0]) <= math.sqrt(6.0)


def test_embedding_low_frequency_mode(bank, grid):
    u = _wrap(grid, _window(grid))
    ratio = embedding_check(u, aniso_norm(u, bank)[0])
    assert ratio <= 2.0


def test_embedding_rejects_zero(bank, grid):
    with pytest.raises(InvalidArgument):
        embedding_check(_wrap(grid, np.zeros((64, 64))), 0.0)


def test_support_violation_raises(bank, grid):
    X, Y = grid.coords()
    u = _wrap(grid, np.exp(-(X ** 2 + Y ** 2)))  # tails leave the rectangle
    with pytest.raises(DomainViolation):
        aniso_norm(u, bank)


def test_norm_params_validation():
    assert WEAK == (0.75, -0.25)
    assert STRONG == (1.0, 0.0)


def test_orthogonality_disjoint_cones(theta, grid):
    rng = np.random.default_rng(12)
    base = _window(grid) * rng.standard_normal((64, 64))
    cu, cv = ConeSpec(0.1, 0.2), ConeSpec(0.5, 0.6)
    u = cone_filter(_wrap(grid, base), cu)
    v = cone_filter(_wrap(grid, base), cv)
    assert transversal_orthogonality(u, v, theta, cu, cv) <= 1e-12


def test_orthogonality_zero_function(theta, grid):
    cu, cv = ConeSpec(0.1, 0.2), ConeSpec(0.5, 0.6)
    u = cone_filter(_wrap(grid, np.zeros((64, 64))), cu)
    v = cone_filter(_wrap(grid, np.zeros((64, 64))), cv)
    assert transversal_orthogonality(u, v, theta, cu, cv) == 0.0


def test_orthogonality_rejects_overlapping_cones(theta, grid):
    u = _wrap(grid, _window(grid))
    with pytest.raises(PreconditionViolation):
        transversal_orthogonality(u, u, theta, ConeSpec(0.1, 0.3), ConeSpec(0.2, 0.4))


def test_paired_inner_self_consistency(theta, grid):
    # with v = u the paired inner products are the squared minus-band norms
    rng = np.random.default_rng(13)
    steep = ConeSpec(3.0, -3.0)  # inside the minus cone
    u = cone_filter(_wrap(grid, _window(grid) * rng.standard_normal((64, 64))), steep)
    got = paired_band_inner(u, u, theta)
    bands = band_norms(u, theta)
    # paired terms use the squared mask, so compare against a direct
    # frequency-side evaluation of the same quantity
    F = u.fft()
    xi1, xi2 = u.freqs()
    best = 0.0
    for n in range(0, 12):
        m = mask_value(theta, n, "-", xi1, xi2)
        best = max(best, float(abs(np.sum((m ** 2) * F * np.conj(F))
                                   * u.spacing ** 2 / u.N ** 2)))
    assert got == pytest.approx(best, rel=1e-12)
    assert got > 0.0
    assert max(v for (n, s), v in bands.items() if s == "-") > 0.0


def test_polarization_ordering(theta):
    coarse = Polarization(ConeSpec(-0.2, 0.2), ConeSpec(1.0, -1.0))
    fine = Polarization(ConeSpec(-1.5, 1.5), ConeSpec(4.0, -4.0))
    assert strictly_precedes(coarse, fine)
    assert not strictly_precedes(fine, coarse)


def test_norm_monotone_under_ordering(grid):
    # for ordered polarizations the coarser norm is controlled by the finer
    # one; report the fitted constant and require it to be finite and stable
    coarse = Polarization(ConeSpec(-0.2, 0.2), ConeSpec(1.0, -1.0))
    fine = Polarization(ConeSpec(-1.5, 1.5), ConeSpec(4.0, -4.0))
    assert strictly_precedes(coarse, fine)
    coarse_bank, fine_bank = mask_bank(coarse, grid), mask_bank(fine, grid)
    rng = np.random.default_rng(14)
    win = _window(grid)
    ratios = []
    for _ in range(20):
        u = _wrap(grid, win * rng.standard_normal((64, 64)))
        ratios.append(aniso_norm(u, coarse_bank)[0] / aniso_norm(u, fine_bank)[0])
    fitted_c = max(ratios)
    assert fitted_c < 4.0


def test_mask_squares_parseval_diagnostic(theta, grid):
    # replacing each mask by its square divided by the total square sum
    # reproduces the plain L2 norm: a partition diagnostic on a random run
    rng = np.random.default_rng(15)
    u = _wrap(grid, _window(grid) * rng.standard_normal((64, 64)))
    F = u.fft()
    xi1, xi2 = u.freqs()
    sq_total = np.zeros_like(xi1)
    pieces = []
    for n in range(0, 12):
        for sigma in ("+", "-"):
            m = mask_value(theta, n, sigma, xi1, xi2)
            sq_total += m ** 2
            pieces.append(np.sum(np.abs(m * F) ** 2) * u.spacing ** 2 / u.N ** 2)
    normalized = sum(p for p in pieces)
    direct = np.sum(np.abs(F) ** 2 * sq_total) * u.spacing ** 2 / u.N ** 2
    assert normalized == pytest.approx(direct, rel=1e-12)


def test_mask_bank_order_and_values(theta, grid, bank):
    masks = list(aniso._masks(theta, *grid.freqs(), aniso._top_band(grid)))
    keys = [key for key, _ in masks]
    top = max(n for n, _ in keys)
    assert keys == [(n, sigma) for n in range(top + 1) for sigma in ("+", "-")]
    for (n, sigma), m in masks:
        assert np.array_equal(m, mask_value(theta, n, sigma, *grid.freqs()))
    # the bank keeps each weight array as the masks' squares summed in order
    assert (bank.N, bank.spacing) == (grid.N, grid.spacing)
    for (p, q), got in ((STRONG, bank.strong), (WEAK, bank.weak)):
        expected = np.zeros((grid.N, grid.N))
        for (n, sigma), m in masks:
            expected += 2.0 ** (2.0 * (p if sigma == "+" else q) * n) * (m * m)
        assert np.array_equal(got, expected)


def test_mask_bank_evaluates_each_radial_bump_once(theta, grid, monkeypatch):
    # chi(2^-n |xi|) is shared by the two signs of level n and by level n + 1
    from semiflow import aniso
    calls = []
    real = aniso.chi

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(aniso, "chi", counting)
    mask_bank(theta, grid)
    assert len(calls) == aniso._top_band(grid) + 1


def test_bank_refused_on_another_grid(bank):
    finer = make_grid(1.0, 1.0, 128)
    wider = make_grid(2.0, 2.0, 64)
    for g in (finer, wider):
        with pytest.raises(InvalidArgument):
            aniso_norm(g, bank)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(margin=st.floats(0.0, 1.99), grid_n=st.sampled_from([32, 64, 128]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_norms_match_the_band_decomposition(margin, grid_n, seed):
    # the two weight arrays give each norm of the oracle's per-band sums,
    # keep weak <= strong exactly, and the bank's defect is the oracle's.
    # Margins within rounding of 2 put atan(margin) on atan(2), where the
    # cones touch and Polarization refuses them
    theta = Polarization(ConeSpec(-margin, margin), ConeSpec(2.0, -2.0))
    grid = make_grid(1.0, 1.0, grid_n)
    rng = np.random.default_rng(seed)
    u = _wrap(grid, _window(grid) * rng.standard_normal((grid_n, grid_n)))
    bank = mask_bank(theta, grid)
    strong, weak = aniso_norm(u, bank)
    bands = band_norms(u, theta)
    assert strong == pytest.approx(weighted_norm(bands, STRONG), rel=1e-14)
    assert weak == pytest.approx(weighted_norm(bands, WEAK), rel=1e-14)
    assert weak <= strong
    assert partition_defect(bank) == float(np.max(np.abs(mask_sum(theta, grid) - 1.0)))


def test_bank_and_one_norm_memory_at_512(theta):
    # every mask stored at N = 512 held 46.1 MiB, and the bank plus one
    # norm peaked at 60.6 MiB; 31.8 MiB while the mask pass kept the two
    # frequency grids and the level-0 half mask to its end, 25.8 MiB now
    grid = make_grid(1.0, 1.0, 512)
    u = _wrap(grid, _window(grid))
    bank = mask_bank(theta, grid)
    assert bank.strong.nbytes + bank.weak.nbytes < 8 * 2 ** 20
    _, peak = traced_peak(lambda: aniso_norm(u, mask_bank(theta, grid)))
    assert peak < 28 * 2 ** 20


def test_norms_run_exits_3_on_a_broken_partition(monkeypatch, capsys):
    # chi halved makes the masks telescope to 1/2 at every grid frequency
    real = aniso.chi
    monkeypatch.setattr(aniso, "chi", lambda s: real(s) / 2.0)
    assert main(["norms", "--set", "params.grid_n=32"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "numerical-failure"
    assert doc["partition_defect"] == 0.5
