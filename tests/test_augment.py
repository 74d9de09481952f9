"""Spectral projector kernels and the projector-augmented discretization."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import augment, bloch, fem1d, model, supercell
from gapeig.errors import BasisTooLarge, QGridAsymmetric, WindowTooSmall

REF_1D = (-1.0451627964356383, -0.6541194618386763)
WIN_1D = (-1.1442549263927626, -0.6450826051490102)


@pytest.fixture(scope="module")
def proj_small(V1d):
    return augment.build_projector(V1d, J=1, n_c=40, M_q=16)


@pytest.fixture(scope="module")
def proj_full(V1d):
    return augment.build_projector(V1d, J=1, n_c=100, M_q=64)


def test_trace_is_rank(proj_small, proj_full):
    # P has exactly M_q * J mass-orthonormal columns, so trace is exact
    for P in (proj_small, proj_full):
        defect, trace = P.gram_defect()
        assert trace == pytest.approx(P.M_q * P.J, abs=1e-9)
        assert abs(P.diagnostics["trace_per_cell"] - P.J) <= 1e-3


def test_kernel_symmetric(proj_small):
    K = proj_small.dense()
    assert np.max(np.abs(K - K.T)) <= 1e-10


def project(P, x):
    """P x = U (MU)^T x for window coefficients x."""
    return P.combine(P.coefficients(P.apply_mass(x)))


def test_idempotency(proj_small, proj_full):
    assert proj_small.diagnostics["idempotency_residual"] <= 1e-6
    assert proj_full.diagnostics["idempotency_residual"] <= 1e-6
    # applying P twice equals applying it once, on random vectors
    rng = np.random.default_rng(0)
    x = rng.standard_normal(proj_small.n_win)
    once = project(proj_small, x)
    twice = project(proj_small, once)
    assert np.max(np.abs(twice - once)) <= 1e-10 * np.max(np.abs(once))


def test_idempotency_residual_matches_dense(proj_small):
    # the Gram-matrix formula against ||P^2 - P||_F formed densely, on a
    # kernel whose columns are deliberately not mass-orthonormal
    F = proj_small.F * np.linspace(0.9, 1.1, proj_small.F[:, 0].size).reshape(-1, 1, proj_small.J)
    K = augment.ProjectorKernel(proj_small.lattice, 1, proj_small.n_c, proj_small.M_q, F, None)
    U = K.rows(0, K.n_win)
    Mdense = K.apply_mass(np.eye(K.n_win))
    Pd = U @ U.T @ Mdense
    want = np.linalg.norm(Pd @ Pd - Pd)
    assert K.idempotency_residual() == pytest.approx(want, rel=1e-10)
    assert want > 0.1


def unfolded_columns(P):
    """U and MU of a kernel unfolded explicitly: each column the real or
    imaginary part of np.kron(cell phases, fiber vector), MU the window-circle
    mass of those columns."""
    n_q, n_c, J = P.F.shape
    cells = P.lattice.b * (np.arange(P.M_q) - P.M_q // 2)
    U = np.empty((P.n_win, 2 * n_q * J))
    for i, q in enumerate(P.qs):
        for j in range(J):
            unfolded = np.sqrt(2.0 / P.M_q) * np.kron(np.exp(1j * q * cells), P.F[i, :, j])
            U[:, 2 * (i * J + j)] = unfolded.real
            U[:, 2 * (i * J + j) + 1] = unfolded.imag
    mass = fem1d.p1_forms(P.n_win, P.h, -1.0)[1]
    return U, fem1d.apply_form(mass, U)


@pytest.mark.parametrize("source", ["fem", "planewave"])
def test_bloch_form_matches_unfolded_columns(V1d, source):
    # rows, mass_rows, coefficients, combine and P x against the
    # explicitly unfolded columns; node ranges start and end mid-period
    P = augment.build_projector(V1d, J=1, n_c=40, M_q=16, source=source)
    U, MU = unfolded_columns(P)
    n = P.n_win

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    for lo, hi in ((0, 1), (0, 57), (13, 95), (250, 333), (n - 61, n), (n - 1, n), (0, n)):
        close(P.rows(lo, hi), U[lo:hi])
        close(P.mass_rows(lo, hi), MU[lo:hi])
    rng = np.random.default_rng(1)
    X = rng.standard_normal((n, 3))
    Y = rng.standard_normal((U.shape[1], 3))
    close(P.coefficients(X), U.T @ X)
    close(P.combine(Y), U @ Y)
    close(P.combine(Y[:, 0]), U @ Y[:, 0])
    close(project(P, X[:, 0]), U @ (MU.T @ X[:, 0]))


def stored_arrays(obj):
    """The numpy arrays an object's attributes hold, also inside tuples and dicts."""
    out, todo = [], list(vars(obj).values())
    while todo:
        v = todo.pop()
        if isinstance(v, np.ndarray):
            out.append(v)
        elif isinstance(v, (tuple, list)):
            todo.extend(v)
        elif isinstance(v, dict):
            todo.extend(v.values())
    return out


def test_projector_memory(V1d, lat1d, proj_small):
    # the full-size kernel holds its Bloch fibers, not n_win-row columns, and
    # neither its build nor a2_estimate unfolds them whole (proj_small has
    # done the imports and first-call set-up outside the trace)
    mesh = fem1d.symmetric_mesh(lat1d, 100, 10)
    tracemalloc.start()
    try:
        P = augment.build_projector(V1d, J=1, n_c=100, M_q=64)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        augment.a2_estimate(V1d, mesh, P)
        a2_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    arrays = stored_arrays(P)
    assert sum(a.nbytes for a in arrays) < 1e6
    assert all(a.ndim == 0 or a.shape[0] < P.n_win for a in arrays)
    assert build_peak < 4e6
    assert a2_peak < 5e6


def test_translation_invariance(proj_full):
    assert proj_full.diagnostics["translation_defect"] <= 1e-8


def test_kernel_decay(proj_full):
    prof = proj_full.decay_profile()
    assert prof[0] == 1.0
    assert np.all(prof[6:] <= 1e-6)


def test_band_window_split(proj_full, gap1d):
    lo, hi = proj_full.band_window
    assert lo < gap1d.gamma < hi


def test_odd_M_q_rejected(V1d):
    with pytest.raises(QGridAsymmetric):
        augment.build_projector(V1d, J=1, n_c=40, M_q=9)


def test_window_too_small_at_build(V1d):
    # 4 periods cannot contain the decayed kernel
    with pytest.raises(WindowTooSmall):
        augment.build_projector(V1d, J=1, n_c=40, M_q=4)


@pytest.mark.parametrize("budget, cap", [("MAX_FIBER_NODES", 39),
                                         ("MAX_WINDOW_NODES", 16 * 40 - 1)])
def test_projector_budgets(V1d, monkeypatch, budget, cap):
    # n_c = 40, M_q = 16 is one node over the lowered budget: refused before any fiber
    def no_fiber(*args):
        raise AssertionError("a fiber was solved above the budget")

    monkeypatch.setattr(augment, budget, cap)
    monkeypatch.setattr(augment, "fem_fiber", no_fiber)
    with pytest.raises(BasisTooLarge, match="budget"):
        augment.build_projector(V1d, J=1, n_c=40, M_q=16)


def test_window_margin_enforced(V1d, lat1d, proj_small):
    # M_q=16: window is +-8 periods, so an 8-period half-domain leaves none
    mesh = fem1d.symmetric_mesh(lat1d, 40, 8)
    with pytest.raises(WindowTooSmall):
        augment.augmented_space(proj_small, mesh)
    # 7 periods leaves exactly one period of margin
    aug = augment.augmented_space(proj_small, fem1d.symmetric_mesh(lat1d, 40, 7))
    assert aug.n_aug > 0


def test_mesh_projector_consistency(V1d, lat1d, proj_small):
    with pytest.raises(ValueError):
        augment.augmented_space(proj_small, fem1d.symmetric_mesh(lat1d, 50, 5))


def test_cross_mass_small(V1d, lat1d, proj_full):
    aug = augment.augmented_space(proj_full, fem1d.symmetric_mesh(lat1d, 100, 10))
    assert aug.diagnostics["cross_mass"] <= 1e-6
    assert 0 < aug.diagnostics["rank_kept"] <= aug.diagnostics["rank_coupled"]


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_augmented_basis_orthogonal_to_p1_space(lat1d, proj_full, t):
    # the added directions are mass-orthogonal to every domain hat function
    # and mass-orthonormal, so the augmented mass is blockdiag(M_dom, I)
    aug = augment.augmented_space(proj_full, fem1d.symmetric_mesh(lat1d, 100, 10, t))
    MU = proj_full.apply_mass(aug.U_keep)
    assert aug.n_aug > 0
    assert np.max(np.abs(MU[aug.idx])) <= 1e-12
    assert np.max(np.abs(aug.U_keep.T @ MU - np.eye(aug.n_aug))) <= 1e-12
    assert aug.diagnostics["gram_min"] > augment.SIGMA_TOL


def test_fem_and_planewave_sources_agree(V1d):
    # two independent constructions of the same spectral projector
    Pf = augment.build_projector(V1d, J=1, n_c=40, M_q=16, source="fem")
    Pp = augment.build_projector(V1d, J=1, n_c=40, M_q=16, source="planewave")
    diff = np.max(np.abs(Pf.dense() - Pp.dense()))
    assert diff <= 5e-3  # FEM fiber carries the O(h^2) band error


def dense_augmented_pencil(V, W, aug):
    """The augmented pencil assembled densely: the oracle for the bordered solve."""
    forms = aug.projector.forms(lambda x: V(x) + W(x))
    idx, Uk = aug.idx, aug.U_keep
    nf, nk = len(idx), Uk.shape[1]
    out = []
    for form in forms:
        d, o, _ = form
        T = np.zeros((nf + nk, nf + nk))
        T[:nf, :nf] = np.diag(d[idx]) + np.diag(o[idx[:-1]], 1) + np.diag(o[idx[:-1]], -1)
        FU = fem1d.apply_form(form, Uk)
        T[:nf, nf:] = FU[idx]
        T[nf:, :nf] = FU[idx].T
        T[nf:, nf:] = Uk.T @ FU
        out.append(0.5 * (T + T.T))
    return out


def test_augmented_spectrum_matches_dense_oracle(V1d, W1d, lat1d, proj_small):
    for t in (0.0, 0.5):
        aug = augment.augmented_space(proj_small, fem1d.symmetric_mesh(lat1d, 40, 3, t))
        res = augment.augmented_spectrum(V1d, W1d, aug, WIN_1D)
        A, M = dense_augmented_pencil(V1d, W1d, aug)
        want = sla.eigh(A, M, subset_by_value=WIN_1D, eigvals_only=True)
        assert aug.n_aug > 0
        assert res.diagnostics["n_in_window"] == len(res.eigenvalues) == len(want) > 0
        assert np.allclose(res.eigenvalues, want, rtol=1e-9, atol=0.0)
        V = res.eigenvectors
        assert np.max(np.abs(V.T @ M @ V - np.eye(len(want)))) <= 1e-9


def test_augmented_spectrum_matches_reference(V1d, W1d, lat1d, proj_full, reference1d):
    # agreement with the planewave supercell is limited by the P1 fiber
    # error, O(h^2) ~ 1e-3 at n_c=100
    mesh = fem1d.symmetric_mesh(lat1d, 100, 10)
    aug = augment.augmented_space(proj_full, mesh)
    res = augment.augmented_spectrum(V1d, W1d, aug, WIN_1D)
    interior = res.interior()
    assert len(interior) == 2
    assert supercell.hausdorff(interior, reference1d) <= 2e-3


def test_augmented_spectrum_offset_family(V1d, W1d, lat1d, proj_full, reference1d):
    # the t=0.5 family polluted the plain FEM; augmented it is clean
    mesh = fem1d.symmetric_mesh(lat1d, 100, 10, t=0.5)
    aug = augment.augmented_space(proj_full, mesh)
    res = augment.augmented_spectrum(V1d, W1d, aug, WIN_1D)
    interior = res.interior()
    assert len(interior) == 2
    assert supercell.hausdorff(interior, reference1d) <= 2e-3


def test_augmented_values_domain_independent(V1d, W1d, lat1d, proj_full):
    # the interior values do not move when the domain grows or shifts: the
    # signature of a pollution-free family
    vals = []
    for n_half, t in ((10, 0.0), (10, 0.5), (14, 0.0)):
        mesh = fem1d.symmetric_mesh(lat1d, 100, n_half, t)
        aug = augment.augmented_space(proj_full, mesh)
        res = augment.augmented_spectrum(V1d, W1d, aug, WIN_1D)
        vals.append(res.interior())
    for v in vals[1:]:
        assert supercell.hausdorff(vals[0], v) <= 1e-7


def test_augmented_no_perturbation_empty(V1d, lat1d, proj_full):
    none = model.Perturbation(lat1d, [])
    mesh = fem1d.symmetric_mesh(lat1d, 100, 10)
    aug = augment.augmented_space(proj_full, mesh)
    res = augment.augmented_spectrum(V1d, none, aug, WIN_1D)
    assert len(res.interior()) == 0


def test_spectral_split_invariant(V1d, gap1d):
    # FEM fibers keep band J strictly below the gap midpoint and band J+1
    # strictly above, at every sampled quasimomentum, already at n_c = 50
    for n_c in (50, 100):
        for q in bloch.midpoint_grid(V1d.lattice, 16):
            ev, _ = augment.fem_fiber(V1d, q, n_c, 2)
            assert ev[0] < gap1d.gamma < ev[1]


def p1_bloch_eigenvalues(length, n_el, q):
    """Closed form P1 FEM eigenvalues of -u'' on a circle of n_el elements
    with u(x + length) = e^{iq length} u(x), in increasing order.

    With the consistent mass matrix the nodal Bloch waves e^{i theta j},
    theta = (q + 2 pi k/length) h, give (6/h^2) (1-cos theta) / (2+cos theta),
    evaluated with 1 - cos theta = 2 sin^2(theta/2) to keep small values
    accurate.  Returns the values and the wavenumbers q + 2 pi k/length
    (k centred on 0, so that |theta| <= pi) in that order.
    """
    h = length / n_el
    k = q + 2.0 * np.pi * (np.arange(n_el) - n_el // 2) / length
    th = k * h
    ev = (12.0 / h**2) * np.sin(0.5 * th) ** 2 / (2.0 + np.cos(th))
    order = np.argsort(ev)
    return ev[order], k[order]


@pytest.mark.parametrize("qb", [1.0, 2.0, -1.3, -2.5, np.pi - 1e-3, -(np.pi - 1e-3)])
def test_fem_fiber_matches_closed_form(lat1d, qb):
    # V = 0: the quasiperiodic seam e^{iqb} against the closed form.  The
    # values are even in q, so the vectors check the seam's direction: each
    # is the Bloch wave e^{i k x} sampled on the period nodes
    free = model.PeriodicPotential(lat1d, [])
    n_c, J = 12, 6
    q = qb / lat1d.b
    ev, vecs = augment.fem_fiber(free, q, n_c, J)
    want, k = p1_bloch_eigenvalues(lat1d.b, n_c, q)
    assert np.allclose(ev, want[:J], rtol=1e-12, atol=0.0)
    x = np.arange(n_c) * (lat1d.b / n_c)
    for j in range(J):
        wave = np.exp(1j * k[j] * x) / np.sqrt(n_c)
        v = vecs[:, j]
        assert abs(np.vdot(wave, v)) / np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_window_circle_matches_closed_form(lat1d, proj_small):
    # V = 0 on the window circle: antiperiodic, so q = pi / (n_win h); the
    # forms without potential and with a zero potential through the
    # quadrature are the same
    n_c, M_q = 6, 8
    n = n_c * M_q
    P = augment.ProjectorKernel(lat1d, 1, n_c, M_q, np.zeros((M_q // 2, n_c, 0), complex), None)
    length = n * P.h
    want, _ = p1_bloch_eigenvalues(length, n, np.pi / length)
    for forms in (P.forms(), P.forms(lambda x: 0.0 * x)):
        A, M = (fem1d.dense_form(f) for f in forms)
        assert A.dtype == M.dtype == float
        got = sla.eigh(A, M, eigvals_only=True)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    # on the full-size window the exact antiperiodic waves satisfy A v = lambda M v
    n = proj_small.n_win
    length = n * proj_small.h
    want, k = p1_bloch_eigenvalues(length, n, np.pi / length)
    waves = np.exp(1j * np.outer(np.arange(n) * proj_small.h, k[:20]))
    stiff, mass = proj_small.forms()
    res = fem1d.apply_form(stiff, waves) - want[:20] * fem1d.apply_form(mass, waves)
    assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(stiff[0]))


@pytest.fixture(scope="module")
def dense_a2(V1d, lat1d):
    """D = P_ref - P_fem on the domain P1 coefficients, formed column by
    column, with the window and domain H1 Grams, at n_c = 50, M_q = 16."""
    mesh = fem1d.symmetric_mesh(lat1d, 50, 3)
    P_fem = augment.build_projector(V1d, n_c=50, M_q=16)
    P_ref = augment.build_projector(V1d, n_c=50, M_q=16, source="planewave")
    idx = np.arange(mesh.i_lo + 1, mesh.i_hi) + P_fem.half_index
    E = np.zeros((P_fem.n_win, len(idx)))
    E[idx, np.arange(len(idx))] = 1.0
    D = project(P_ref, E) - project(P_fem, E)
    G_win = sum(fem1d.dense_form(f) for f in P_fem.forms())
    G_dom = G_win[np.ix_(idx, idx)]
    U_dom = np.hstack([P.rows(idx[0], idx[-1] + 1) for P in (P_fem, P_ref)])
    exact = augment.a2_estimate(V1d, mesh, P_fem)["estimate"]
    return D, G_win, G_dom, U_dom, exact


def test_a2_matches_dense_oracle(dense_a2):
    # top generalized eigenvalue of (D^T G_win D, G_dom)
    D, G_win, G_dom, _, exact = dense_a2
    want = np.sqrt(sla.eigh(D.T @ G_win @ D, G_dom, eigvals_only=True)[-1])
    assert exact == pytest.approx(want, rel=1e-8)


def test_a2_bounds_sampled_ratios(dense_a2):
    # no domain vector is stretched by more than A2; the vectors are drawn
    # inside the span the two projectors couple to, where the ratio is largest
    D, G_win, G_dom, U_dom, exact = dense_a2
    rng = np.random.default_rng(0)
    ratios = []
    for g in rng.standard_normal((20, U_dom.shape[1])):
        x = U_dom @ g
        Dx = D @ x
        ratios.append(np.sqrt((Dx @ G_win @ Dx) / (x @ G_dom @ x)))
    assert max(ratios) <= exact * (1.0 + 1e-10)
    assert max(ratios) >= 0.5 * exact


def test_a2_identical_kernels_zero(V1d, lat1d, proj_small, monkeypatch):
    # with the FEM projector as its own reference, the two terms cancel
    monkeypatch.setattr(augment, "build_projector", lambda *args, **kwargs: proj_small)
    out = augment.a2_estimate(V1d, fem1d.symmetric_mesh(lat1d, 40, 3), proj_small)
    assert out["estimate"] <= 1e-10


def test_a2_reuses_projector(V1d, lat1d, proj_small):
    # a2_estimate measures the FEM projector it is given, at the mesh's n_c
    # and inside its window
    mesh = fem1d.symmetric_mesh(lat1d, 40, 3)
    out = augment.a2_estimate(V1d, mesh, proj_small)
    assert (out["n_c"], out["M_q"], out["M_pw"]) == (40, 16, augment.DEFAULT_M_PW)
    assert 0 < out["estimate"] < 1
    with pytest.raises(ValueError):
        augment.a2_estimate(V1d, fem1d.symmetric_mesh(lat1d, 50, 3), proj_small)
    planewave = augment.build_projector(V1d, J=1, n_c=40, M_q=16, source="planewave")
    with pytest.raises(ValueError):
        augment.a2_estimate(V1d, mesh, planewave)
    with pytest.raises(WindowTooSmall):
        augment.a2_estimate(V1d, fem1d.symmetric_mesh(lat1d, 40, 9), proj_small)


def test_a2_decreases_with_refinement(V1d, lat1d):
    ests = []
    for n_c in (50, 200):
        mesh = fem1d.symmetric_mesh(lat1d, n_c, 3)
        out = augment.a2_estimate(V1d, mesh, augment.build_projector(V1d, n_c=n_c, M_q=16))
        ests.append(out["estimate"])
    assert ests[0] >= 2.0 * ests[1]
