import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflow import ResourceLimit, TrigPolynomial, ceiling, spectral
from semiflow.canon import canonical_json
from semiflow.ceiling import extrema
from semiflow.cli import main
from semiflow.dynamics import MAX_CROSSINGS
from semiflow.spectral import (CUTOFF_MARGIN_FRACTION, BoxPartition,
                               Observable, UlamOperator, build_ulam,
                               correlation, decay_fit, spectrum)
from semiflow.smooth import step

from conftest import parse_violations, random_positive_ceiling, traced_peak
from oracles import advance_per_point, correlation_from_zero, dense_ulam, ulam_samples

# 1.3 + 0.3 sin 2 pi x + 0.1 cos 4 pi x + 0.05 (cos + sin) 6 pi x, ell = 3
F_GEN3 = TrigPolynomial(1.3, ((1, 0.0, 0.3), (2, 0.1, 0.0), (3, 0.05, 0.05)), 3)


def test_partition_measure(f_generic):
    part = BoxPartition.build(f_generic, 64, 4)
    grid = np.arange(4096) / 4096
    integral = float(np.mean(f_generic(grid)))
    total_measure = float(np.sum(part.column_heights)) / part.nx
    assert total_measure == pytest.approx(integral, abs=1e-3)


def test_ulam_identity_at_t0(f_generic):
    op = build_ulam(f_generic, 0.0, 8, 4, 32)
    assert np.array_equal(op.matrix, np.eye(32))


def test_ulam_doubling_map_closed_form(f_const):
    nx, ppb = 16, 256
    op = build_ulam(f_const, 1.0, nx, 1, ppb)
    ref = np.zeros((nx, nx))
    for j in range(nx):
        ref[(2 * j) % nx, j] += 0.5
        ref[(2 * j + 1) % nx, j] += 0.5
    assert np.max(np.abs(op.matrix - ref)) <= 2.0 / np.sqrt(ppb)


def test_ulam_columns_sum_to_one(f_sin):
    op = build_ulam(f_sin, 3.0, 16, 4, 64)
    sums = op.matrix.sum(axis=0)
    assert np.max(np.abs(sums - 1.0)) <= 2.0 / np.sqrt(64)
    assert np.all(op.matrix >= 0.0)


def test_ulam_mass_conservation(f_sin):
    op = build_ulam(f_sin, 2.0, 16, 4, 64)
    masses = np.repeat(BoxPartition.build(f_sin, 16, 4).column_heights / (16 * 4), 4)
    pushed = op.matrix @ masses
    assert pushed.sum() == pytest.approx(masses.sum(), rel=1e-12)


def test_ulam_memory_cap(f_sin):
    with pytest.raises(ResourceLimit):
        build_ulam(f_sin, 1.0, 512, 256, 16)


def test_ulam_assembly_holds_one_chunk_of_points(f_sin):
    # 262,144 sample points: assembled in one pass they peaked at 32.1 MiB
    build_ulam(f_sin, 2.0, 256, 16, 64)     # warm-up: imports and caches
    _, peak = traced_peak(
        lambda: build_ulam(f_sin, 2.0, 256, 16, 64))
    assert peak < 8 * 2 ** 20


@settings(derandomize=True, deadline=None, max_examples=60)
@given(f=st.integers(0, 2 ** 32 - 1).map(
           lambda seed: random_positive_ceiling(np.random.default_rng(seed))),
       nx=st.integers(1, 64), ns=st.integers(1, 16), ppb=st.integers(16, 100),
       pinned=st.none())
@example(f=TrigPolynomial(1.0, ((1, 0.0, 0.2),), 2), nx=256, ns=16, ppb=64,
         pinned=13106.00031995401)
def test_ulam_crossing_cap_refuses_before_any_point_flows(f, nx, ns, ppb, pinned):
    # the limit is net of the tallest sample point over all boxes, whatever the chunk
    _, s0 = ulam_samples(BoxPartition.build(f, nx, ns), ppb)
    t_limit = MAX_CROSSINGS * extrema(f, 0)[0] - float(np.max(s0))
    assert pinned is None or t_limit == pinned

    def no_advance(*args, **kwargs):
        raise AssertionError("a chunk flowed before the crossing cap was decided")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "advance", no_advance)
        for chunk in (spectral.CHUNK_POINTS, 64):
            patch.setattr(spectral, "CHUNK_POINTS", chunk)
            with pytest.raises(ResourceLimit) as exc:
                build_ulam(f, np.nextafter(t_limit, np.inf), nx, ns, ppb)
            assert exc.value.details == {"t_limit": t_limit, "max_crossings": MAX_CROSSINGS}


def test_ulam_lattice_deterministic(capsys):
    # the lattice draws nothing, so the config seed cannot move the spectrum
    payloads = []
    for seed in (1, 99):
        argv = ["spectrum", "--set", 'ceiling={"ell":2,"mean":1.0,"harmonics":[[1,0.0,0.2]]}',
                "--set", "params.nx=40", "--set", "params.points_per_box=32",
                "--set", f"seed={seed}"]
        assert main(argv) == 0
        payloads.append(canonical_json(json.loads(capsys.readouterr().out)["payload"]))
    assert payloads[0] == payloads[1]


def test_spectrum_identity(f_const):
    op = build_ulam(f_const, 0.0, 4, 2, 16)
    rep = spectrum(op, 3)
    assert all(abs(v - 1.0) <= 1e-12 for v in rep.eigenvalues)


def test_spectrum_leading_eigenvalue_flat(f_const):
    op = build_ulam(f_const, 1.0, 64, 1, 64)
    rep = spectrum(op, 4)
    assert abs(rep.eigenvalues[0] - 1.0) <= 1e-8
    # flat invariant density: eigenvector of the doubling Ulam matrix
    vals, vecs = np.linalg.eig(op.matrix)
    lead = vecs[:, np.argmax(np.abs(vals))].real
    lead = np.abs(lead) / np.abs(lead).sum()
    cv = lead.std() / lead.mean()
    assert cv < 0.05


def test_spectrum_matches_dense_oracle(f_sin):
    op = build_ulam(f_sin, 4.0, 64, 8, 64)
    rep = spectrum(op, 8)
    dense = np.linalg.eigvals(op.matrix)
    dense = dense[np.argsort(-np.abs(dense))]
    assert abs(rep.eigenvalues[1]) == pytest.approx(abs(dense[1]), abs=1e-8)
    assert abs(rep.eigenvalues[0] - 1.0) <= 1e-8
    assert all(abs(v) <= 1.0 + 1e-10 for v in rep.eigenvalues)


def _multiplicities(vals, tol=1e-8):
    return [sum(abs(w - v) <= tol * max(1.0, abs(v)) for w in vals) for v in vals]


@pytest.mark.parametrize("ceiling", ["sin", "gen3"])
@pytest.mark.parametrize("nx, ns", [(64, 8), (128, 8)])
def test_sparse_arnoldi_matches_dense_eigvals(ceiling, nx, ns, f_sin):
    f = f_sin if ceiling == "sin" else F_GEN3
    op = build_ulam(f, 2.0 if ceiling == "sin" else 1.0, nx, ns, 64)
    rep = spectrum(op, 8)
    dense = scipy.linalg.eigvals(op.matrix)
    top = dense[np.argsort(-np.abs(dense), kind="stable")][:8]
    # conjugate pairs tie in modulus, so match the values as sets
    for v in rep.eigenvalues:
        assert np.min(np.abs(top - v)) <= 1e-10
    for v in top:
        assert min(abs(w - v) for w in rep.eigenvalues) <= 1e-10
    assert list(rep.multiplicities) == _multiplicities(list(top))


def test_spectrum_takes_arnoldi_values_once_k_converged(capsys, monkeypatch):
    # ARPACK stops with some of the k + 2 = 10 values it iterates on
    # converged: the report takes them once 8 did, and exit 3 names the
    # count when fewer did
    argv = ["spectrum", "--set",
            'ceiling={"ell":3,"mean":1.3,"harmonics":[[1,0.0,0.3],[2,0.1,0.0],[3,0.05,0.05]]}',
            "--set", "params.t=1.5", "--set", "params.nx=50", "--set", "params.ns=4",
            "--set", "params.points_per_box=16"]
    dense = scipy.linalg.eigvals(build_ulam(F_GEN3, 1.5, 50, 4, 16).matrix)
    top = dense[np.argsort(-np.abs(dense), kind="stable")]
    count = 8

    def partial_eigs(a, k, **kwargs):
        assert k == 10
        # the converged values, in an order the report must not keep
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", top[:count][::-1], None)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", partial_eigs)
    assert main(argv) == 0
    got = [complex(*v) for v in json.loads(capsys.readouterr().out)["payload"]["eigenvalues"]]
    assert sorted(got, key=_re_im) == sorted(top[:8], key=_re_im)
    assert [abs(v) for v in got] == sorted((abs(v) for v in got), reverse=True)
    count = 7
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "numerical-failure"
    assert (doc["converged"], doc["requested"]) == (7, 8)


def _re_im(z):
    return z.real, z.imag


def test_spectrum_k_cap():
    # the eigenvalue count has its one check at parse
    assert "k must be an integer >= 1 and <= 32, got 33" in parse_violations(
        experiment="spectrum", params={"k": 33})


def test_correlation_mean_zero_against_one(f_sin):
    psi = Observable(s_wave=("cos", 1.0))
    one = Observable(cutoff=False)
    curve = correlation(f_sin, psi, one, [0.5, 1.5, 3.0], 64, 8)
    assert all(abs(v) <= 1e-12 for _, v in curve.samples)


def test_correlation_zero_time_variance(f_generic):
    psi = Observable(x_wave=("cos", 1), s_wave=("cos", 1.0))
    curve = correlation(f_generic, psi, psi, [0.0], 128, 8)
    assert curve.samples[0][1] >= 0.0


def test_correlation_periodic_nondecay_constant(f_const):
    psi = Observable(s_wave=("cos", 1.0))
    early = correlation(f_const, psi, psi, [0.1 * k for k in range(11)], 64, 16)
    late = correlation(f_const, psi, psi, [10.0 + 0.1 * k for k in range(11)], 64, 16)
    m_early = max(abs(v) for _, v in early.samples)
    m_late = max(abs(v) for _, v in late.samples)
    assert m_late >= 0.9 * m_early


@pytest.mark.parametrize("cutoff", [True, False])
def test_correlation_matches_from_zero_oracle(cutoff, f_sin):
    psi = Observable(x_wave=("cos", 1), s_wave=("cos", 1.0), cutoff=cutoff)
    phi = Observable(x_wave=("sin", 2), s_wave=("cos", 0.5), cutoff=cutoff)
    t_list = [3.0, 0.0, 1.5, 3.0, 0.25, 7.5, 0.0]
    curve = correlation(f_sin, psi, phi, t_list, 64, 8)
    margin = CUTOFF_MARGIN_FRACTION * 0.8    # min f_sin = f_sin(3/4)
    ref = correlation_from_zero(f_sin, psi, phi, t_list, 64, 8, margin)
    assert [t for t, _ in curve.samples] == t_list
    for (_, v), (_, r) in zip(curve.samples, ref):
        assert abs(v - r) <= 1e-12


def _evaluated_points(monkeypatch, run):
    """The result of run() and the number of points at which it evaluated f."""
    points = []
    original = ceiling.eval

    def counting_eval(f, x, order=0):
        points.append(np.size(x))
        return original(f, x, order)
    with monkeypatch.context() as patch:
        patch.setattr(ceiling, "eval", counting_eval)
        result = run()
    return result, sum(points)


def test_flow_advance_evaluates_f_once_per_shared_base_point(f_sin, monkeypatch):
    # the nodes of a column, and the boxes of a column at one lattice offset,
    # start at one x and share its orbit, evaluated once per level that one
    # of them reaches: the ratio here is 6.9 for the correlation (606 points
    # against 4,163) and 7.2 for the Ulam matrix
    extrema(f_sin, 0)           # certified and cached before counting
    psi = Observable(x_wave=("cos", 1), s_wave=("cos", 1.0))
    t_list = [float(t) for t in range(9)]

    def ulam():
        return build_ulam(f_sin, 3.0, 16, 8, 32).matrix.tobytes()
    runs = {"correlation": lambda: correlation(f_sin, psi, psi, t_list, 64, 8), "ulam": ulam}
    for name, run in runs.items():
        shared, points = _evaluated_points(monkeypatch, run)
        monkeypatch.setattr(spectral, "advance", advance_per_point)
        per_point, per_point_count = _evaluated_points(monkeypatch, run)
        monkeypatch.undo()
        assert shared == per_point
        assert 4 * points <= per_point_count, name


def test_correlation_evaluates_f_once_per_base_point_and_level(f_sin, monkeypatch):
    # the flow-transport correlation job: the 32 nodes of a column share one
    # orbit, and f is evaluated once at each level that some node of the
    # column reaches over all 41 samples, the 2048 column midpoints included;
    # sharing only among the nodes that cross in one step took 67,156 points
    extrema(f_sin, 0)           # certified and cached before counting
    psi = Observable(s_wave=("cos", 1.0))
    t_list = [0.5 * k for k in range(41)]
    _, points = _evaluated_points(
        monkeypatch, lambda: correlation(f_sin, psi, psi, t_list, 2048, 32))
    assert points == 43977


@pytest.mark.parametrize("nx, ns, t", [(4096, 1, 1000.0), (256, 16, 600.0)])
def test_correlation_flow_memory_is_linear_in_the_nodes(f_sin, nx, ns, t):
    # 4096 nodes flowed past about 1250 roofs: a table of every level
    # reached would hold some 80 MB of base points and heights, where the
    # orbit store keeps a ring of a few rows per base point.  ns = 1 makes
    # every node its own base point; ns = 16 groups the nodes by column
    psi = Observable(s_wave=("cos", 1.0))
    correlation(f_sin, psi, psi, [t], nx, ns)     # warm-up: imports and caches
    _, peak = traced_peak(lambda: correlation(f_sin, psi, psi, [t], nx, ns))
    assert peak < 4 * 2 ** 20


def test_observable_cutoff_matches_the_full_product_bitwise(f_sin):
    # the cutoff multiplies only inside its band; outside it both steps are 1
    margin = CUTOFF_MARGIN_FRACTION * 0.8
    rng = np.random.default_rng(42)
    x = rng.random(450)
    fx = f_sin(x)
    # the smallest float s whose top gap fx - s falls below margin: the
    # band's top edge, where (fx - s)/margin comes closest to 1 from below
    top = fx[400:] - margin
    for _ in range(8):
        top = np.where(fx[400:] - top >= margin, np.nextafter(top, 2.0), top)
    assert np.all(fx[400:] - top < margin)
    assert np.all(fx[400:] - np.nextafter(top, 0.0) >= margin)
    # s = 0, s = margin, s = fx - margin, nan, s = fx, just inside the lower
    # band, anywhere in the fiber, a little outside it, and just inside the
    # upper band
    s = np.concatenate([np.zeros(50), np.full(50, margin), fx[100:150] - margin,
                        np.full(50, np.nan), fx[200:250], np.full(50, np.nextafter(margin, 0.0)),
                        rng.uniform(0.0, 1.0, 50) * fx[300:350],
                        rng.uniform(-0.1, 1.1, 50) * fx[350:400], top])
    for x_wave, s_wave in ((None, None), (("cos", 1), None), (("sin", 3), ("cos", 1.0)),
                           (None, ("sin", 0.5))):
        got = Observable(x_wave, s_wave).values(x, s, fx, margin)
        plain = Observable(x_wave, s_wave, cutoff=False).values(x, s, fx, margin)
        full = plain * step(s / margin) * step((fx - s) / margin)
        assert got.tobytes() == full.tobytes()
        assert np.isnan(got[150:200]).all()


def test_correlation_rejects_negative_time():
    # the sample times have their one check at parse
    assert "t_values must be a nonempty list of numbers >= 0" in parse_violations(
        experiment="correlations", params={"t_values": [0.5, -1.0]})


def test_correlation_weakly_mixing_decays(f_sin):
    psi = Observable(x_wave=("cos", 1))
    ts = [0.5 * k for k in range(17)]
    curve = correlation(f_sin, psi, psi, ts, 8192, 8)
    assert abs(curve.samples[0][1]) > 0.1
    assert all(abs(v) < 1e-2 for t, v in curve.samples if t >= 6.0)


def test_decay_fit_exact_geometric():
    from semiflow.spectral import CorrelationCurve
    cc = CorrelationCurve(
        samples=tuple((float(t), 3.0 * 0.7 ** t) for t in range(1, 7)),
        psi_id="a", phi_id="b")
    rate, residual = decay_fit(cc)
    assert rate == pytest.approx(0.7, rel=1e-12)
    assert residual <= 1e-12


def test_decay_fit_constant_curve():
    from semiflow.spectral import CorrelationCurve
    cc = CorrelationCurve(samples=tuple((float(t), 0.25) for t in range(5)),
                          psi_id="a", phi_id="b")
    rate, _ = decay_fit(cc)
    assert rate == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_masks_zeros():
    from semiflow.spectral import CorrelationCurve
    samples = [(0.0, 0.5), (1.0, 0.0), (2.0, 0.125), (3.0, 0.0), (4.0, 0.03125)]
    cc = CorrelationCurve(samples=tuple(samples), psi_id="a", phi_id="b")
    rate, _ = decay_fit(cc)
    assert rate == pytest.approx(0.5, rel=1e-9)



# dim 120 takes the LAPACK path, 200 Arnoldi.  The default chunk splits the
# larger of these at box boundaries; the cases with their own chunk size take
# one box per chunk, chunks of 27 boxes (1000 points: a size dividing neither
# dim nor points_per_box) and boxes larger than the chunk.
_DENSE_CASES = [
    pytest.param(ceiling, nx, ns, ppb, None, id=f"{ceiling}-{nx}-{ns}-{ppb}-lattice")
    for ceiling in ("sin", "gen3") for nx, ns in ((30, 4), (50, 4)) for ppb in (16, 37, 100)
] + [
    pytest.param(ceiling, 50, 4, ppb, chunk, id=f"{ceiling}-50-4-{ppb}-lattice-chunk{chunk}")
    for ceiling in ("sin", "gen3") for ppb, chunk in ((37, 1), (37, 1000), (100, 64))
]


@pytest.mark.parametrize("ceiling, nx, ns, ppb, chunk", _DENSE_CASES)
def test_sparse_ulam_equals_dense_assembly(ceiling, nx, ns, ppb, chunk, f_sin, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(spectral, "CHUNK_POINTS", chunk)
    f, t = (f_sin, 2.5) if ceiling == "sin" else (F_GEN3, 1.0)
    op = build_ulam(f, t, nx, ns, ppb)
    dense = dense_ulam(f, t, nx, ns, ppb)
    assert np.array_equal(op.matrix, dense)
    assert op.sparse.nnz == np.count_nonzero(dense)
    reference = scipy.sparse.csr_array(dense)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op.sparse, name), getattr(reference, name))
    # spectrum of the CSR view of the dense matrix is how the eigensolve ran on it
    assert spectrum(op, 8) == spectrum(UlamOperator(reference, t), 8)


@pytest.mark.parametrize("nx, ns", [(30, 4), (50, 4)])
def test_sparse_ulam_at_t0_equals_dense_assembly(nx, ns, f_sin):
    op = build_ulam(f_sin, 0.0, nx, ns, 37)
    dense = dense_ulam(f_sin, 0.0, nx, ns, 37)
    assert np.array_equal(op.matrix, dense)
    assert spectrum(op, 4) == spectrum(UlamOperator(scipy.sparse.csr_array(dense), 0.0), 4)
