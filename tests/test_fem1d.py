"""P1 FEM: closed-form Dirichlet oracle, exact mass partitions, pollution
classification, domain monotonicity, dislocation operators."""

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import fem1d, model
from gapeig.errors import BasisTooLarge, MeshOffsetError

# 1D reference gap eigenvalues (converged supercell, see test_supercell)
REF_1D = (-1.0451627964356383, -0.6541194618386763)
WIN_1D = (-1.1442549263927626, -0.6450826051490102)
# frozen spurious value of the t=0.5 truncated family (stable across n_half)
SPURIOUS_1D = -0.911277


def p1_dirichlet_eigenvalues(length, n_el, k_max):
    """Closed form P1 FEM eigenvalues of -u'' on (0, length), Dirichlet.

    With the consistent mass matrix the discrete eigenvalues are
    (6/h^2) (1-cos(k h pi/length)) / (2+cos(k h pi/length)).
    """
    h = length / n_el
    k = np.arange(1, k_max + 1)
    th = k * np.pi * h / length
    return (6.0 / h**2) * (1.0 - np.cos(th)) / (2.0 + np.cos(th))


def test_mesh_geometry(lat1d):
    mesh = fem1d.symmetric_mesh(lat1d, 10, 3)
    assert mesh.x_lo == pytest.approx(-3 * lat1d.b)
    assert mesh.x_hi == pytest.approx(3 * lat1d.b)
    assert mesh.n_nodes == 61
    assert np.allclose(np.diff(mesh.nodes), mesh.h)


def test_mesh_offset_on_grid(lat1d):
    mesh = fem1d.symmetric_mesh(lat1d, 10, 3, t=0.5)
    assert mesh.x_hi == pytest.approx(3.5 * lat1d.b)
    with pytest.raises(MeshOffsetError):
        fem1d.symmetric_mesh(lat1d, 10, 3, t=0.03)


def test_mesh_minimum_span(lat1d):
    with pytest.raises(ValueError):
        fem1d.Mesh1D(lat1d.b, 10, 0, 30)


def test_mesh_node_budget(lat1d, monkeypatch):
    # 4 periods of 10 elements are 41 nodes: at the budget, and one period more is refused
    monkeypatch.setattr(fem1d, "MAX_NODES", 41)
    assert fem1d.halfline_mesh(lat1d, 10, 4).n_nodes == 41
    with pytest.raises(BasisTooLarge, match="51 nodes"):
        fem1d.halfline_mesh(lat1d, 10, 5)
    with pytest.raises(BasisTooLarge):
        fem1d.symmetric_mesh(lat1d, 10, 2, t=0.1)


def test_laplacian_matches_closed_form():
    # -u'' on (0, pi): lattice b = pi/8, 8 periods, V = W = 0
    lat = model.Lattice(1, np.pi / 8.0)
    free = model.PeriodicPotential(lat, [])
    none = model.Perturbation(lat, [])
    mesh = fem1d.halfline_mesh(lat, 10, 8)
    res = fem1d.galerkin_spectrum(free, none, mesh, (0.0, 30.0))
    want = p1_dirichlet_eigenvalues(np.pi, 80, 10)
    want = want[want < 30.0]
    assert np.allclose(res.eigenvalues, want, rtol=1e-12)


@pytest.mark.parametrize("block", [1, 7, 11, 24])
def test_form_gram_matches_dense(V1d, block):
    # X^T A X from blocks of rows, against the dense form; 23 rows split
    # into blocks of every kind, including a last block of one row
    n = 23
    a = np.arange(n) * 0.3
    X = np.random.default_rng(1).standard_normal((n, 5))
    for seam in (-1.0, 0.0):
        for form in fem1d.p1_forms(n, 0.3, seam, fem1d.element_integrals(a, a + 0.3, 0.3, V1d)):
            want = X.T @ fem1d.dense_form(form) @ X
            got = fem1d.form_gram(form, lambda lo, hi: X[lo:hi], block)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-12)


def test_quadrature_self_refinement(V1d, W1d, lat1d):
    # halving h changes window eigenvalues at the expected O(h^2) rate
    win = WIN_1D
    r1 = fem1d.galerkin_spectrum(V1d, W1d, fem1d.symmetric_mesh(lat1d, 100, 5), win)
    r2 = fem1d.galerkin_spectrum(V1d, W1d, fem1d.symmetric_mesh(lat1d, 200, 5), win)
    m1 = r1.eigenvalues[np.argmin(np.abs(r1.eigenvalues - REF_1D[0]))]
    m2 = r2.eigenvalues[np.argmin(np.abs(r2.eigenvalues - REF_1D[0]))]
    assert abs(m1 - REF_1D[0]) > 3.0 * abs(m2 - REF_1D[0])


def test_interval_mass_partition(lat1d):
    # masses over a partition of the domain sum to the full mass, exactly
    mesh = fem1d.symmetric_mesh(lat1d, 10, 2)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(mesh.n_nodes)
    cuts = np.linspace(mesh.x_lo, mesh.x_hi, 7) + 0.013
    cuts[0], cuts[-1] = mesh.x_lo, mesh.x_hi
    parts = [
        fem1d.interval_mass(mesh, c, cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)
    ]
    total = fem1d.interval_mass(mesh, c, mesh.x_lo, mesh.x_hi)
    assert np.sum(parts) == pytest.approx(total, rel=1e-12)


def test_interval_mass_against_quadrature(lat1d):
    # exact piecewise-quadratic integration vs a brute trapezoid rule, on
    # values at every node (nonzero end values included) and on intervals
    # that reach the domain ends
    mesh = fem1d.symmetric_mesh(lat1d, 7, 2)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(mesh.n_nodes)
    for lo, hi in ((-3.7, 5.1), (mesh.x_lo, mesh.x_lo + 1.3), (mesh.x_lo, mesh.x_hi)):
        xs = np.linspace(lo, hi, 400001)
        brute = np.trapezoid(np.interp(xs, mesh.nodes, c) ** 2, xs)
        assert fem1d.interval_mass(mesh, c, lo, hi) == pytest.approx(brute, abs=1e-7)


def test_mass_norm_of_eigenvectors(V1d, W1d, lat1d):
    # solve_window returns B-orthonormal vectors, so total mass is 1
    mesh = fem1d.symmetric_mesh(lat1d, 50, 5)
    res = fem1d.galerkin_spectrum(V1d, W1d, mesh, WIN_1D)
    for i in range(len(res.eigenvalues)):
        values = np.pad(res.eigenvectors[:, i], 1)
        total = fem1d.interval_mass(mesh, values, mesh.x_lo, mesh.x_hi)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_boundary_mass_validation(lat1d):
    # a half-line mesh [0, 8b] does not contain the compact set (-2b, 2b)
    mesh = fem1d.halfline_mesh(lat1d, 10, 8)
    c = np.ones(mesh.n_nodes)
    with pytest.raises(ValueError):
        fem1d.compact_mass(mesh, c)
    # the masses take a value at every node: interior values alone are refused
    with pytest.raises(ValueError, match="every mesh node"):
        fem1d.boundary_mass(mesh, c[1:-1])


def test_masses_on_four_periods(lat1d):
    # on the shortest domain, [-2b, 2b], the two end strips of width 2b meet
    # in the middle and the compact set is the whole domain
    mesh = fem1d.symmetric_mesh(lat1d, 10, 2)
    c = np.random.default_rng(3).standard_normal(mesh.n_nodes)
    total = fem1d.interval_mass(mesh, c, mesh.x_lo, mesh.x_hi)
    assert fem1d.boundary_mass(mesh, c) == pytest.approx(total, rel=1e-14)
    assert fem1d.compact_mass(mesh, c) == pytest.approx(total, rel=1e-14)


def test_classification(V1d, W1d, lat1d, reference1d):
    mesh = fem1d.symmetric_mesh(lat1d, 100, 10, t=0.5)
    res = fem1d.galerkin_spectrum(V1d, W1d, mesh, WIN_1D)
    reports = fem1d.classify_modes(mesh, res, reference1d)
    by_class = {}
    for r in reports:
        by_class.setdefault(r.classification, []).append(r)
    true_vals = sorted(r.eigenvalue for r in by_class["true"])
    assert np.allclose(true_vals, REF_1D, atol=5e-3)
    assert len(by_class["spurious"]) == 1
    sp = by_class["spurious"][0]
    assert sp.eigenvalue == pytest.approx(SPURIOUS_1D, abs=1e-4)
    # the spurious mode is a boundary artifact: all mass at the ends
    assert sp.mu_boundary >= 0.99
    assert sp.mu_compact <= 1e-6
    # true modes are the opposite
    for r in by_class["true"]:
        assert r.mu_boundary <= 0.01
        assert r.mu_compact >= 0.9


# the galerkin.csv rows of configs/benchmark1d.json (n_half 10, t 0.5,
# n_c 100), frozen from the implementation that measured the interior
# coefficients: classify_modes pads them with the zero end values, so every
# mass must stay the same to roundoff
FROZEN_GALERKIN = [
    (-1.143604211579862, 0.024162248473849013, 0.019028910222038144, "undetermined"),
    (-1.1435991762787705, 0.08327106215362348, 0.02085149278550597, "undetermined"),
    (-1.0444525590547158, 7.105446844726078e-23, 0.999995815478679, "true"),
    (-0.9112769389609917, 0.9999985225808664, 5.866234531914488e-26, "spurious"),
    (-0.6532225738395545, 2.5687508523597122e-08, 0.9864149833219332, "true"),
]


def test_classify_modes_frozen(V1d, W1d, lat1d, reference1d, window1d):
    mesh = fem1d.symmetric_mesh(lat1d, 100, 10, t=0.5)
    reports = fem1d.classify_modes(mesh, fem1d.galerkin_spectrum(V1d, W1d, mesh, window1d),
                                   reference1d)
    assert [r.classification for r in reports] == [row[3] for row in FROZEN_GALERKIN]
    got = np.array([(r.eigenvalue, r.mu_boundary, r.mu_compact) for r in reports])
    want = np.array([row[:3] for row in FROZEN_GALERKIN])
    assert np.max(np.abs(got[:, 0] - want[:, 0])) <= 1e-12
    assert np.max(np.abs(got[:, 1:] - want[:, 1:])) <= 1e-14


def test_aligned_family_spurious_predicted_by_dislocation(
    V1d, W1d, lat1d, reference1d, window1d
):
    # even the t=0 family carries a boundary mode near the lower edge, and
    # the t=0 halfline operator predicts its value to ~1e-5
    mesh = fem1d.symmetric_mesh(lat1d, 100, 10)
    res = fem1d.galerkin_spectrum(V1d, W1d, mesh, WIN_1D)
    reports = fem1d.classify_modes(mesh, res, reference1d)
    sp = [r for r in reports if r.classification == "spurious"]
    assert len(sp) == 1
    assert sp[0].mu_boundary >= 0.95
    half = fem1d.dislocation_spectrum(V1d, "halfline+", 0.0, window1d)
    assert np.min(np.abs(half.eigenvalues - sp[0].eigenvalue)) <= 1e-3
    # the genuine defect values are untouched
    true_vals = sorted(r.eigenvalue for r in reports if r.classification == "true")
    assert np.allclose(true_vals, REF_1D, atol=5e-3)


def test_structured_solve_matches_dense_oracle(V1d, W1d, lat1d):
    # Galerkin and dislocation pencils solved densely agree with the
    # inertia-certified structured solve
    mesh = fem1d.symmetric_mesh(lat1d, 50, 5, t=0.5)
    cases = [
        (fem1d.assemble_galerkin(V1d, W1d, mesh), fem1d.galerkin_spectrum(V1d, W1d, mesh, WIN_1D)),
        (fem1d._dirichlet_pencil(fem1d.halfline_mesh(lat1d, 50, 20), lambda x: V1d(x + 0.5 * lat1d.b)),
         fem1d.dislocation_spectrum(V1d, "halfline+", 0.5, WIN_1D, n_c=50, n_periods=20)),
    ]
    for pencil, res in cases:
        A = fem1d.dense_form((pencil.a, pencil.a_off, 0.0))
        M = fem1d.dense_form((pencil.m, pencil.m_off, 0.0))
        want = sla.eigh(A, M, subset_by_value=WIN_1D, eigvals_only=True)
        assert res.count == len(res.eigenvalues) == len(want) > 0
        assert np.allclose(res.eigenvalues, want, rtol=1e-10, atol=0.0)
        assert res.residual_bound <= 1e-10


def test_domain_monotonicity(V1d, W1d, lat1d):
    # Dirichlet eigenvalues decrease when the domain grows, for k <= 20
    pot_window = (-5.0, 50.0)
    prev = None
    for n_half in (5, 7, 9):
        mesh = fem1d.symmetric_mesh(lat1d, 40, n_half)
        pencil = fem1d.assemble_galerkin(V1d, W1d, mesh)
        from gapeig import eigcore

        w = eigcore.solve_lowest(pencil, 20, with_vectors=False).eigenvalues
        if prev is not None:
            assert np.all(w <= prev + 1e-10)
        prev = w


def test_spurious_value_stable_in_n_half(V1d, W1d, lat1d, reference1d):
    vals = []
    for n_half in (8, 11, 14):
        mesh = fem1d.symmetric_mesh(lat1d, 100, n_half, t=0.5)
        res = fem1d.galerkin_spectrum(V1d, W1d, mesh, WIN_1D)
        reports = fem1d.classify_modes(mesh, res, reference1d)
        sp = [r.eigenvalue for r in reports if r.classification == "spurious"]
        assert len(sp) == 1
        vals.append(sp[0])
    assert np.max(vals) - np.min(vals) <= 1e-4


def test_dislocation_halfline_predicts_spurious(V1d, window1d):
    res = fem1d.dislocation_spectrum(V1d, "halfline+", 0.5, window1d)
    assert np.min(np.abs(res.eigenvalues - SPURIOUS_1D)) <= 1e-3


def test_dislocation_halfline_t0_edge_state(V1d, window1d):
    # the aligned halfline hosts exactly one interior value, just above the
    # lower edge; frozen from a 40-period, n_c=100 run
    res = fem1d.dislocation_spectrum(V1d, "halfline+", 0.0, window1d)
    ev = res.eigenvalues
    a, b = window1d
    g = 0.004 * (b - a)
    interior = ev[(ev > a + g) & (ev < b - g)]
    assert len(interior) == 1
    assert interior[0] == pytest.approx(-1.14021468, abs=1e-4)


def test_dislocation_kinds_and_validation(V1d, window1d):
    with pytest.raises(ValueError):
        fem1d.dislocation_spectrum(V1d, "spiral", 0.5, window1d)
    with pytest.raises(ValueError):
        fem1d.dislocation_spectrum(V1d, "halfline+", 0.5, window1d, n_periods=10)
    res = fem1d.dislocation_spectrum(V1d, "junction", 0.5, window1d, n_periods=20)
    # the junction spans [-20b, 20b]: 4000 elements, 3999 interior nodes
    assert res.diagnostics["n_dof"] == 2 * 20 * 100 - 1
    assert len(res.eigenvalues) > 0


def test_halfline_spectral_flow(V1d, window1d):
    # the halfline gap eigenvalue sweeps monotonically down through the gap
    # as the potential shift grows (slope ~2.5 per unit t mid-gap)
    vals = {}
    for t in (0.4, 0.5, 0.6):
        res = fem1d.dislocation_spectrum(V1d, "halfline+", t, window1d, n_periods=20)
        a, b = window1d
        g = 0.004 * (b - a)
        ev = res.eigenvalues
        ev = ev[(ev > a + g) & (ev < b - g)]
        assert len(ev) == 1
        vals[t] = ev[0]
    assert vals[0.4] > vals[0.5] > vals[0.6]
    assert abs(vals[0.4] - vals[0.6]) < 0.5
