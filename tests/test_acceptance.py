"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold.

Pinned constants marked "frozen" were produced by the independent oracle
implementations in oracles.py (flat enumeration with forward orbit sums,
quadratic pair scans, brute window scans) or by fixed-seed runs recorded at
build time; the tolerances are stated inline.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from semiflow import (FlowPoint, TrigPolynomial, Verdict, classify,
                      cobounding_potential, cocycle_residual, extrema,
                      eigenfunction_check, exponent_fit, inverse_branches,
                      m_of_t, n_of_t, weak_mixing_test)
from semiflow.aniso import (ConeSpec, GridFunction2D, Polarization,
                            aniso_norm, embedding_check, make_grid,
                            mask_bank, partition_defect)
from semiflow.cli import emit, parse_config, run
from semiflow.genericity import PerturbationFamily, g_matrix, jacobian, slope_clusters
from semiflow.smooth import plateau
from semiflow.spectral import Observable, build_ulam, correlation, spectrum

from conftest import random_positive_ceiling
from oracles import (Word, bump_family, cone_filter, default_mu, periodic_beta_max,
                     transversal_orthogonality)


def _suite():
    return {
        "const_1": TrigPolynomial(1.0, (), 2),
        "const_13_ell3": TrigPolynomial(1.3, (), 3),
        "cob_a": TrigPolynomial(1.0, ((1, 0.0, -0.05), (2, 0.0, 0.05)), 2),
        "cob_b": TrigPolynomial(1.0, ((2, 0.0, -0.04), (4, 0.0, 0.04)), 2),
        "gen_a": TrigPolynomial(1.0, ((1, 0.0, 0.2),), 2),
        "gen_b": TrigPolynomial(1.0, ((1, 0.0, 0.3), (2, 0.1, 0.0)), 2),
    }


def test_acceptance_1_branch_sum_identity():
    """100 random (f, z, t): |sum 1/E - 1| <= 1e-10."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        f = random_positive_ceiling(rng)
        f_min = float(np.min(f(np.arange(512) / 512)))
        # keep the branch count at or below 2^16
        t_cap = f_min * (16 / math.log2(f.ell) - 2)
        x = float(rng.random())
        s = float(rng.uniform(0, f(x)))
        t = float(rng.uniform(0.5, max(0.6, t_cap)))
        table, _ = inverse_branches(f, FlowPoint(x, s), t)
        assert table.count <= 2 ** 16
        defect = abs(sum(1.0 / float(f.ell) ** n for n in table.n.tolist()) - 1.0)
        worst = max(worst, defect)
        assert defect <= 1e-10
    print(f"\nACCEPTANCE 1 PASS: branch-sum identity, worst defect {worst:.3e} <= 1e-10")


def test_acceptance_2_constant_ceiling():
    """f = 1, ell = 2: m exactly 1, lambda_min exactly 2, NotWeaklyMixing."""
    f = TrigPolynomial(1.0, (), 2)
    for t in (2.5, 4.2, 8.0):
        est = m_of_t(f, t, 8, 8, classify(f, 0.9), certified=True)
        assert est.m_value == 1.0
        assert est.m_upper == 1.0
    assert 2 ** (1 / periodic_beta_max(f, 1)) == 2.0
    rep = weak_mixing_test(f, 4096, 24)
    assert rep.verdict is Verdict.NOT_WEAKLY_MIXING
    assert rep.residual_sup <= 1e-12
    defect = eigenfunction_check(rep, f, [0.7, 1.9])
    assert defect <= 1e-10
    print(f"\nACCEPTANCE 2 PASS: constant ceiling, m=1 exact, lambda=2 exact, "
          f"residual {rep.residual_sup:.1e} <= 1e-12, defect {defect:.1e} <= 1e-10")


def test_acceptance_3_coboundary_round_trip():
    """psi recovers Psi' within tail + 1e-8; residual <= 1e-8; non-decay."""
    f = TrigPolynomial(1.0, ((1, 0.0, -0.05), (2, 0.0, 0.05)), 2)
    rep = cobounding_potential(f, 24)
    xs = np.arange(4096) / 4096
    expected_psi = 0.1 * math.pi * np.cos(2 * math.pi * xs)
    psi_err = float(np.max(np.abs(rep.Psi(xs, 1) - expected_psi)))
    assert psi_err <= rep.tail_bound + 1e-8
    residual = cocycle_residual(rep, f, 4096)
    assert residual <= 1e-8
    verdict = weak_mixing_test(f, 4096, 24).verdict
    assert verdict is Verdict.NOT_WEAKLY_MIXING

    obs = Observable(s_wave=("cos", 1.0))
    early = correlation(f, obs, obs, [0.25 * k for k in range(9)], 4096, 8)
    late = correlation(f, obs, obs, [6.0 + 0.25 * k for k in range(9)], 4096, 8)
    m_early = max(abs(v) for _, v in early.samples)
    m_late = max(abs(v) for _, v in late.samples)
    assert m_late >= 0.5 * m_early
    print(f"\nACCEPTANCE 3 PASS: coboundary round trip, psi error {psi_err:.2e} "
          f"<= tail+1e-8, residual {residual:.2e} <= 1e-8, verdict {verdict.value}, "
          f"late/early = {m_late / m_early:.3f} >= 0.5")


def test_acceptance_4_weakly_mixing_example():
    """f = 1 + 0.2 sin(2 pi x): psi = 0, residual = 0.2, m(f,10) < 1."""
    f = TrigPolynomial(1.0, ((1, 0.0, 0.2),), 2)
    rep = cobounding_potential(f, 24)
    psi_sup = float(np.max(np.abs(rep.Psi(np.arange(4096) / 4096, 1))))
    assert psi_sup <= 1e-10
    residual = cocycle_residual(rep, f, 4096)
    assert residual == pytest.approx(0.2, abs=1e-6)
    assert weak_mixing_test(f, 4096, 24).verdict is Verdict.WEAKLY_MIXING

    est = m_of_t(f, 10.0, 16, 8, classify(f, 0.9), certified=False)
    # frozen from the build-time run, oracle-checked pointwise by the
    # quadratic pair scan (tests/test_transversality.py)
    assert est.m_value == pytest.approx(0.044921875, abs=1e-12)
    assert est.m_value < 1.0
    samples = [(t, m_of_t(f, t, 16, 8, classify(f, 0.9), certified=False).m_value)
               for t in (6.0, 8.0, 10.0, 12.0)]
    rate, _ = exponent_fit(samples)
    assert rate < 1.0
    print(f"\nACCEPTANCE 4 PASS: weakly mixing example, psi sup {psi_sup:.1e}, "
          f"residual {residual:.6f}, m(f,10) = {est.m_value} < 1, fitted rate {rate:.3f} < 1")


def test_acceptance_5_dichotomy_consistency():
    """Residual verdict agrees with the m-trend on all six ceilings."""
    outcomes = []
    for name, f in _suite().items():
        samples = [(t, m_of_t(f, t, 12, 8, classify(f, 0.9), certified=False).m_value)
                   for t in (4.0, 6.0, 8.0)]
        rate, _ = exponent_fit(samples)
        verdict = weak_mixing_test(f, 4096, 24).verdict
        trend_not_mixing = rate >= 0.99
        assert verdict in (Verdict.NOT_WEAKLY_MIXING, Verdict.WEAKLY_MIXING)
        assert trend_not_mixing == (verdict is Verdict.NOT_WEAKLY_MIXING), name
        outcomes.append((name, rate, verdict.value))
    summary = ", ".join(f"{n}: rate {r:.3f} / {v}" for n, r, v in outcomes)
    print(f"\nACCEPTANCE 5 PASS: dichotomy agreement on all 6 ceilings ({summary})")


def test_acceptance_6_cross_bound():
    """m(f, s) <= n(f, t) + slack at s = (b/a) t + b for t in {4, 6}."""
    slack = 0.05
    margins = []
    for name in ("gen_a", "gen_b"):
        f = _suite()[name]
        cls = classify(f, 0.9)
        for t in (4.0, 6.0):
            f_min, f_max = extrema(f, 0)
            s = (f_max / f_min) * t + f_max
            m_val = m_of_t(f, s, 12, 8, certified=False, cls=cls).m_value
            n_val = n_of_t(f, t, 16, 8, cls=cls)
            assert m_val <= n_val + slack
            margins.append(n_val + slack - m_val)
    print(f"\nACCEPTANCE 6 PASS: cross-bound, min margin {min(margins):.4f} >= 0")


def test_acceptance_7_ulam_sanity():
    """Leading eigenvalue within 1e-2 of 1 on every build; doubling matrix."""
    leads = []
    for f, t, nx, ns in [
        (TrigPolynomial(1.0, (), 2), 1.0, 32, 1),
        (TrigPolynomial(1.0, ((1, 0.0, 0.2),), 2), 3.0, 32, 4),
        (TrigPolynomial(1.0, ((1, 0.0, -0.05), (2, 0.0, 0.05)), 2), 2.0, 16, 4),
        (TrigPolynomial(1.3, (), 3), 2.6, 24, 2),
    ]:
        op = build_ulam(f, t, nx, ns, 64, seed=0, mode="lattice")
        rep = spectrum(op, 4)
        lead = abs(rep.eigenvalues[0])
        assert abs(lead - 1.0) <= 1e-2
        leads.append(lead)

    nx, ppb = 16, 256
    f1 = TrigPolynomial(1.0, (), 2)
    op = build_ulam(f1, 1.0, nx, 1, ppb, seed=0, mode="lattice")
    ref = np.zeros((nx, nx))
    for j in range(nx):
        ref[(2 * j) % nx, j] += 0.5
        ref[(2 * j + 1) % nx, j] += 0.5
    err = float(np.max(np.abs(op.matrix - ref)))
    assert err <= 2.0 / math.sqrt(ppb)
    print(f"\nACCEPTANCE 7 PASS: Ulam sanity, leading eigenvalues {['%.6f' % v for v in leads]}, "
          f"doubling-matrix error {err:.2e} <= {2.0 / math.sqrt(ppb):.3f}")


def test_acceptance_8_anisotropic_norms():
    """Partition of unity, sqrt(6) embedding, orthogonality, weak <= strong."""
    theta = Polarization(ConeSpec(-0.5, 0.5), ConeSpec(2.0, -2.0))
    grid = make_grid(1.0, 1.0, 64)
    X, Y = grid.coords()
    window = plateau(X, 0.55, 0.95) * plateau(Y, 0.55, 0.95)

    bank = mask_bank(theta, grid)
    defect = partition_defect(bank)
    assert defect <= 1e-12

    rng = np.random.default_rng(77)
    worst_ratio = 0.0
    for _ in range(100):
        u = GridFunction2D(values=window * rng.standard_normal((64, 64)),
                           spacing=grid.spacing, rect=grid.rect)
        strong, weak = aniso_norm(u, bank)
        ratio = embedding_check(u, strong)
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= math.sqrt(6.0)
        assert weak <= strong + 1e-12

    cu, cv = ConeSpec(0.1, 0.2), ConeSpec(0.5, 0.6)
    base = GridFunction2D(values=window * rng.standard_normal((64, 64)),
                          spacing=grid.spacing, rect=grid.rect)
    ortho = transversal_orthogonality(cone_filter(base, cu),
                                      cone_filter(base, cv), bank, cu, cv)
    assert ortho <= 1e-12
    print(f"\nACCEPTANCE 8 PASS: partition defect {defect:.1e} <= 1e-12, "
          f"max embedding ratio {worst_ratio:.3f} <= sqrt(6), "
          f"orthogonality {ortho:.1e} <= 1e-12, weak <= strong on all functions")


def test_acceptance_9_genericity():
    """Jacobian >= 1 at 20 points; base independence; cluster growth."""
    nu, p = 3, 1
    mu = default_mu(2, nu, p)
    y = 0.3183098861837907
    probe = bump_family(y, nu, 1e-9, mu, amplitude=2.0, ell=2)
    fam_data = bump_family(y, nu, probe.eps_max * 0.5, mu, amplitude=2.0, ell=2)
    base1 = TrigPolynomial(1.0, (), 2)
    base2 = TrigPolynomial(1.0, ((1, 0.0, 0.2),), 2)
    fam = PerturbationFamily(base=base1, directions=fam_data.directions,
                             epsilon=1e-7)
    aprime = fam_data.maximal_in(list(fam_data.words))[:p + 1]
    rng = np.random.default_rng(99)
    min_jac = math.inf
    for _ in range(20):
        x = (y + (rng.random() - 0.5) * 2 * fam_data.neighborhood[1] * 0.9) % 1.0
        sigma = [Word(a.letters + tuple(rng.integers(1, 3, size=6 - nu)), 2).index
                 for a in aprime]
        G = g_matrix(x, sigma, 6, fam)
        fam_other = PerturbationFamily(base=base2, directions=fam_data.directions,
                                       epsilon=1e-7)
        assert np.array_equal(G, g_matrix(x, sigma, 6, fam_other))
        min_jac = min(min_jac, jacobian(G))
        assert jacobian(G) >= 1.0

    for n in (4, 7, 10):
        rep = slope_clusters(base1, n, (1,), classify(base1, 0.9), 8.0)
        assert rep.max_cluster == 2 ** n

    # frozen cluster counts from the build-time run (brute window scan
    # oracle checks the same numbers at n = 8, 10 in tests/test_genericity)
    frozen = {
        "gen_a": {6: 64, 8: 256, 10: 512, 12: 972, 14: 1722},
        "gen_b": {6: 64, 8: 256, 10: 840, 12: 1624, 14: 3177},
    }
    growths = {}
    for name, expect in frozen.items():
        f = _suite()[name]
        cls = classify(f, 0.9)
        counts = {}
        for n in expect:
            counts[n] = slope_clusters(f, n, (1,), cls, 8.0).max_cluster
        assert counts == expect, name
        tail_growth = (counts[14] / counts[10]) ** 0.25
        growths[name] = tail_growth
        assert tail_growth <= 1.6  # bounded away from ell = 2
    print(f"\nACCEPTANCE 9 PASS: min Jacobian {min_jac:.3f} >= 1, base independence exact, "
          f"constant clusters saturate, generic tail growth "
          f"{ {k: round(v, 3) for k, v in growths.items()} } <= 1.6 < 2")


def test_acceptance_10_determinism():
    """Byte-identical reports across runs and worker counts."""
    spec_cfg = {
        "ceiling": {"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]},
        "gamma0": 0.9,
        "experiment": "spectrum",
        "params": {"t": 2.0, "nx": 16, "ns": 2, "points_per_box": 32, "k": 4,
                   "mode": "lattice"},
        "seed": 3,
    }
    a = emit(run(parse_config(json.dumps(spec_cfg))), "json")
    b = emit(run(parse_config(json.dumps(spec_cfg))), "json")
    assert a == b

    trans_cfg = {
        "ceiling": {"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]},
        "experiment": "transversality",
        "params": {"t_values": [3.0, 4.5], "nx": 8, "ns": 8},
        "workers": 1,
    }
    one = emit(run(parse_config(json.dumps(trans_cfg))), "json")
    trans_cfg["workers"] = 2
    two = emit(run(parse_config(json.dumps(trans_cfg))), "json")
    assert one == two
    print("\nACCEPTANCE 10 PASS: byte-identical reports across runs and worker counts")


_SIN = {"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]}
_GEN = {"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.3], [2, 0.1, 0.0]]}
_GEN3 = {"ell": 3, "mean": 1.3,
         "harmonics": [[1, 0.0, 0.3], [2, 0.1, 0.0], [3, 0.05, 0.05]]}
_SPECTRUM_PARAMS = {"t": 2.0, "nx": 16, "ns": 4, "points_per_box": 32, "k": 6}


@pytest.mark.parametrize("config, digest", [
    pytest.param({"ceiling": _SIN, "experiment": "correlations",
                  "params": {"t_values": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0],
                             "nx": 64, "ns": 8, "psi": {"x": ["cos", 1], "s": ["cos", 1.0]},
                             "phi": {"s": ["cos", 1.0]}}},
                 "a43a55f1bb9640f8fa6dc86746d5526d80135de55568980d6a351516d3b2b8c3",
                 id="correlations"),
    pytest.param({"ceiling": _GEN, "experiment": "spectrum", "seed": 3,
                  "params": dict(_SPECTRUM_PARAMS, mode="lattice")},
                 "760222cbe24a9cd5d202c777e8f844764b243fa260f951e432c5c73e57ff65d2",
                 id="spectrum-lattice"),
    pytest.param({"ceiling": _GEN, "experiment": "spectrum", "seed": 3,
                  "params": dict(_SPECTRUM_PARAMS, mode="monte-carlo")},
                 "d9fdf07d3aeaecbba19444ac49d108d6ad8a8acc02ef0f7e75d2a244a705d3bc",
                 id="spectrum-monte-carlo"),
    pytest.param({"ceiling": _SIN, "experiment": "transversality", "gamma0": 0.9,
                  "params": {"t_values": [3.0, 4.5, 6.0], "nx": 16, "ns": 8,
                             "certified": True}},
                 "d5d73b8d05b25f177e415e133a1f04e01690d9cd51e7608e74e4d19b15dc7f68",
                 id="transversality-certified"),
    pytest.param({"ceiling": _GEN3, "experiment": "transversality",
                  "params": {"t_values": [2.0, 3.5, 5.0], "nx": 8, "ns": 8,
                             "certified": False}},
                 "4d29c3e539edc895c2c4abd553d16081e6d9a7177f24e8f005e42508b91b2d1e",
                 id="transversality-base-three"),
])
def test_acceptance_10_pinned_report_bytes(config, digest):
    """Frozen: the sha256 of short correlations and spectrum reports, recorded
    when the flow advance still evaluated f at every point and crossing, and
    of two transversality reports, recorded when every grid point still ran
    its own overlap and sweep passes, so any later change to the floats on
    their way shows here."""
    data = emit(run(parse_config(json.dumps(config))))
    assert hashlib.sha256(data).hexdigest() == digest
    print(f"\nACCEPTANCE 10 PASS: {config['experiment']} report bytes pinned ({len(data)} bytes)")
