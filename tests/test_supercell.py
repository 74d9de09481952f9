"""Supercell discretization: exact embeddings, free-particle oracle,
dense/iterative agreement, commensurability breaking, set utilities."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import bloch, eigcore, model, supercell
from gapeig.errors import BasisTooLarge, InvalidMatrix, NotConverged, ResolutionError

# converged 1D gap eigenvalues (L=40, N=640), stable to ~1e-12 under L and N
# refinement within this package and matching the independent FEM route
# (augmented) to ~1e-6
REF_1D = (-1.0451627964356383, -0.6541194618386763)
# seam state of the incommensurate (L + 0.5)-cell periodization with W = 0,
# converged under N refinement (see test_mismatched_seam_state)
SEAM_VALUE = -0.645116

WIN_1D = (-1.1442549263927626, -0.6450826051490102)
WIN_2D = (-0.361330513742, -0.005748116668)


@pytest.fixture(scope="module")
def empty_w(lat1d):
    return model.Perturbation(lat1d, [])


def test_hausdorff_conventions():
    assert supercell.hausdorff([], []) == 0.0
    assert supercell.hausdorff([1.0], []) == np.inf
    assert supercell.hausdorff([], [2.0]) == np.inf
    assert supercell.hausdorff([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert supercell.hausdorff([0.0, 1.0], [0.1, 1.0, 5.0]) == pytest.approx(4.0)


def test_hausdorff_symmetric():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=5), rng.normal(size=8)
    assert supercell.hausdorff(a, b) == supercell.hausdorff(b, a)


def test_wavevectors_1d_and_ball_2d():
    m1 = supercell.supercell_wavevectors(1, 2, 8)
    assert m1.shape == (17, 1)
    m2 = supercell.supercell_wavevectors(2, 2, 8)
    assert np.all(np.sum(m2 * m2, axis=1) <= 64)
    # strictly smaller than the full square grid: corners are cut
    assert len(m2) < 17 * 17
    with pytest.raises(ValueError):
        supercell.supercell_wavevectors(1, 2, 7)


def test_budget_refusal(V1d, W1d, monkeypatch):
    monkeypatch.setattr(supercell, "MAX_PLANEWAVES", 100)
    with pytest.raises(BasisTooLarge):
        supercell.supercell_spectrum(V1d, W1d, 10, 160, WIN_1D)


def test_dense_routes_refuse_above_dense_limit(V1d, W1d, V2d, W2d, monkeypatch):
    # every dense route refuses a cell above DENSE_LIMIT before it forms an
    # n x n matrix; the limit is lowered below these small cells' sizes
    monkeypatch.setattr(supercell, "DENSE_LIMIT", 300)
    for solve in (
        lambda: supercell.supercell_spectrum(V1d, W1d, 10, 160, WIN_1D, method="dense"),
        lambda: supercell.mismatched_supercell_spectrum(V1d, W1d, 10, 0.5, 168, WIN_1D),
        lambda: supercell.supercell_spectrum(V2d, W2d, 2, 18, WIN_2D, method="dense"),
        lambda: supercell.assemble_supercell(V1d, W1d, 10, 160),
    ):
        with pytest.raises(BasisTooLarge, match="budget of 300"):
            solve()


def test_free_particle_supercell_exact(lat1d, empty_w):
    free = model.PeriodicPotential(lat1d, [])
    win = (0.002, 0.3)
    res = supercell.supercell_spectrum(free, empty_w, 5, 20, win)
    ms = np.arange(-20, 21)
    k2 = (2 * np.pi * ms / (5 * lat1d.b)) ** 2
    want = np.sort(k2[(k2 > win[0]) & (k2 < win[1])])
    assert np.max(np.abs(res.eigenvalues - want)) <= 1e-12


def test_v_embedding_exact(V1d, empty_w):
    # V coefficients land exactly on supercell frequency L*m; the real form
    # reads the entry (m, 0) as Re T[m] - Im T[m]
    L, N = 5, 20
    S, _ = supercell.assemble_supercell(V1d, empty_w, L, N)
    offs = supercell.supercell_wavevectors(1, L, N)[:, 0]
    c = V1d.fourier_coefficients()
    i = int(np.flatnonzero(offs == L)[0])
    j = int(np.flatnonzero(offs == 0)[0])
    assert S[i, j] == c[(1,)].real - c[(1,)].imag
    i2 = int(np.flatnonzero(offs == 2 * L)[0])
    assert S[i2, j] == c[(2,)].real - c[(2,)].imag
    # no coupling at non-multiples of L
    assert S[int(np.flatnonzero(offs == 1)[0]), j] == 0.0


def test_no_perturbation_no_gap_values(V1d, empty_w):
    res = supercell.supercell_spectrum(V1d, empty_w, 10, 160, WIN_1D)
    assert len(res.interior()) == 0


def test_reference_eigenvalues(V1d, W1d, window1d):
    res = supercell.supercell_spectrum(V1d, W1d, 40, 640, window1d)
    assert len(res.eigenvalues) == 2
    assert res.eigenvalues[0] == pytest.approx(REF_1D[0], abs=1e-9)
    assert res.eigenvalues[1] == pytest.approx(REF_1D[1], abs=1e-9)


def test_small_L_already_close(V1d, W1d, window1d):
    res = supercell.supercell_spectrum(V1d, W1d, 10, 160, window1d)
    assert supercell.hausdorff(res.interior(), np.array(REF_1D)) <= 1e-5


def test_convergence_scan_deltas(V1d, W1d, window1d):
    rows = supercell.convergence_scan(V1d, W1d, [10, 20], 16, window1d)
    assert rows[0]["delta_prev"] is None
    assert rows[1]["delta_prev"] <= 1e-5
    assert len(rows[1]["interior"]) == 2


def test_mismatched_t0_matches_commensurate(V1d, W1d, window1d):
    a = supercell.supercell_spectrum(V1d, W1d, 20, 320, window1d)
    b = supercell.mismatched_supercell_spectrum(V1d, W1d, 20, 0.0, 320, window1d)
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-12


def test_mismatched_seam_state(V1d, empty_w, window1d):
    # with W = 0 the commensurate cell has nothing in the gap, but the
    # incommensurate periodization carries a potential jump at the cell seam
    # that binds a state just below the upper edge; it persists under N
    coarse, res = (
        supercell.mismatched_supercell_spectrum(V1d, empty_w, 20, 0.5, N, window1d) for N in (328, 656)
    )
    # the values of the coarse basis that reappear within 1e-4 in the fine one
    kept = [x for x in coarse.eigenvalues if np.min(np.abs(res.eigenvalues - x), initial=np.inf) <= 1e-4]
    assert len(kept) == 1
    assert kept[0] == pytest.approx(SEAM_VALUE, abs=1e-5)
    # the seam also degrades the coefficient tail by orders of magnitude
    assert res.diagnostics["edge_ratio"] > 1e-7


def test_mismatched_preconditions(V1d, W1d, V2d, W2d, window1d):
    with pytest.raises(ValueError):
        supercell.mismatched_supercell_spectrum(V1d, W1d, 20, 1.5, 320, window1d)
    with pytest.raises(ValueError):
        supercell.mismatched_supercell_spectrum(V1d, W1d, 20, 0.5, 60, window1d)
    with pytest.raises(ValueError):
        supercell.mismatched_supercell_spectrum(V2d, W2d, 8, 0.5, 64, (-0.3, -0.1))


def test_dense_vs_iterative_2d(V2d, W2d):
    win = WIN_2D
    dense = supercell.supercell_spectrum(V2d, W2d, 4, 32, win, method="dense")
    iter_ = supercell.supercell_spectrum(V2d, W2d, 4, 32, win, method="iterative")
    assert supercell.hausdorff(dense.eigenvalues, iter_.eigenvalues) <= 1e-8


def test_iterative_finds_double_values(V2d, lat2d):
    # with W = 0 the +-q fibers give double eigenvalues; a block of two start
    # vectors finds both copies, where a single start vector finds one
    empty = model.Perturbation(lat2d, [])
    dense = supercell.supercell_spectrum(V2d, empty, 4, 32, WIN_2D, method="dense")
    res = supercell.supercell_spectrum(V2d, empty, 4, 32, WIN_2D, method="iterative")
    assert len(res) == len(dense) == 5
    assert np.max(np.abs(res.eigenvalues - dense.eigenvalues)) <= 1e-12
    assert np.count_nonzero(np.abs(res.eigenvalues + 0.361034179731) <= 1e-11) == 2
    # the preconditioner is exactly (S - sigma)^-1 here, so GMRES takes one
    # block iteration per solve
    assert res.diagnostics["inner_iterations"] == res.diagnostics["inner_solves"]


def test_iterative_gmres_failure_raises(V2d, W2d, monkeypatch):
    # an inner solve that does not converge must not pass silently
    monkeypatch.setattr(eigcore, "GMRES_MAXITER", 2)
    with pytest.raises(NotConverged, match="GMRES"):
        supercell.supercell_spectrum(V2d, W2d, 2, 8, WIN_2D, method="iterative")


def test_iterative_shift_on_periodic_eigenvalue(V2d, W2d):
    # a window centred exactly on an eigenvalue of the periodic part P: its
    # preconditioner (P - sigma)^-1 does not exist there, so the shift is
    # moved off, and the window holds the dense route's values
    e = np.sort(np.concatenate([e.ravel() for _, e, _ in supercell._fiber_blocks(V2d, 2, 8)]))[20]
    win = (e - 0.05, e + 0.05)
    assert 0.5 * (win[0] + win[1]) == e
    precondition, _ = supercell._fiber_preconditioner(V2d, 2, 8)
    with pytest.raises(np.linalg.LinAlgError):
        precondition(e)
    dense = supercell.supercell_spectrum(V2d, W2d, 2, 8, win, method="dense")
    res = supercell.supercell_spectrum(V2d, W2d, 2, 8, win, method="iterative")
    assert np.allclose(dense.eigenvalues, [0.83394628, 0.8575865, 0.89223705], atol=1e-8)
    assert len(res) == 3
    assert np.max(np.abs(res.eigenvalues - dense.eigenvalues)) <= 1e-12
    assert res.diagnostics["inner_iterations"] > 0
    assert res.residual_bound <= 1e-7


def test_iterative_defect_cell_inner_iterations(V2d, W2d):
    # the benchmark's 2D cell (L = 2, N = 18) in the M_q = 8 gap window:
    # the signed preconditioner leaves GMRES an identity plus a compact part,
    # which block MINRES on |P - sigma|^-1 took 1037 applications to solve
    # and block GMRES without a recycled space 508
    gap = bloch.find_gap(bloch.band_structure(V2d, M_q=8), 1)
    win = (gap.alpha, gap.beta)
    dense = supercell.supercell_spectrum(V2d, W2d, 2, 18, win, method="dense")
    res = supercell.supercell_spectrum(V2d, W2d, 2, 18, win, method="iterative")
    assert len(res) == len(dense) > 0
    assert np.max(np.abs(res.eigenvalues - dense.eigenvalues)) <= 1e-12
    assert res.diagnostics["inner_solves"] == 32
    assert res.diagnostics["inner_iterations"] <= 300
    assert res.residual_bound <= 2.5e-9


@pytest.mark.parametrize("N, n, method", [(18, 1009, "dense"), (24, 1793, "shift-invert")])
def test_auto_2d_switches_at_crossover(V2d, W2d, N, n, method):
    # method "auto" solves a 2D cell densely up to AUTO_DENSE_2D planewaves
    # and matrix-free above, with the dense route's values
    res = supercell.supercell_spectrum(V2d, W2d, 2, N, WIN_2D)
    assert res.diagnostics["n_planewaves"] == n
    assert res.diagnostics["method"] == method
    dense = supercell.supercell_spectrum(V2d, W2d, 2, N, WIN_2D, method="dense")
    assert len(res) == len(dense) > 0
    assert np.max(np.abs(res.eigenvalues - dense.eigenvalues)) <= 1e-10


def test_iterative_window_retries_until_complete(V2d, W2d):
    # the window is complete once a converged value lies at or beyond its
    # half-width from the centre; the values are the dense ones, and the
    # closing Rayleigh-Ritz step bounds their residual
    dense = supercell.supercell_spectrum(V2d, W2d, 2, 18, WIN_2D, method="dense")
    res = supercell.supercell_spectrum(V2d, W2d, 2, 18, WIN_2D, method="iterative")
    assert len(res) == len(dense) == 2
    assert np.max(np.abs(res.eigenvalues - dense.eigenvalues)) <= 1e-8
    assert 0 < res.residual_bound <= 1e-8


@pytest.mark.parametrize("L, N", [(2, 8), (2, 18)])
def test_real_form_matvec_matches_dense(V2d, W2d, L, N):
    # the matrix-free matvec applies the real form S that the dense route
    # assembles
    S, info = supercell.assemble_supercell(V2d, W2d, L, N)
    offs = supercell.supercell_wavevectors(2, L, N)
    table, _ = supercell._fourier_table(V2d, W2d, L, N, info["grid"])
    matvec, _ = supercell._real_form_matvec(table, offs, 2.0 * np.pi / (L * V2d.lattice.b), L)
    # a block of three columns goes through one stacked FFT
    X = np.random.default_rng(11).standard_normal((len(offs), 3))
    want = S @ X
    got = matvec(X)
    assert got.shape == want.shape
    assert np.all(np.linalg.norm(got - want, axis=0) <= 1e-12 * np.linalg.norm(want, axis=0))


@pytest.mark.parametrize("L, N", [(2, 16), (4, 32)])
def test_fiber_blocks_split_real_form(V2d, L, N):
    # the blocks of the periodic part are closed under m -> -m, cover every
    # mode once, and hold the eigenvalues of its dense real form
    modes = supercell.supercell_wavevectors(2, L, N)
    groups = supercell._fiber_blocks(V2d, L, N)
    rows = [block for r, _, _ in groups for block in r]
    assert len(rows) > L * L
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(len(modes)))
    for block in rows:
        assert sorted(map(tuple, -modes[block])) == sorted(map(tuple, modes[block]))
    empty = model.Perturbation(V2d.lattice, [])
    dense = np.linalg.eigvalsh(supercell.assemble_supercell(V2d, empty, L, N)[0])
    e = np.sort(np.concatenate([e.ravel() for _, e, _ in groups]))
    assert np.max(np.abs(e - dense)) <= 1e-12
    # and the complex exponential-basis H, whose solver rounds differently
    table, _ = supercell._fourier_table(V2d, None, L, N, supercell._coeff_grid(L, N))
    want = np.linalg.eigvalsh(_complex_matrix(modes, 2.0 * np.pi / (L * V2d.lattice.b), table))
    assert np.max(np.abs(e - want)) <= 1e-12 * np.max(np.abs(want))


def test_iterative_operators_are_real(V2d, W2d, monkeypatch):
    # the Lanczos and GMRES blocks, the matvec and the preconditioner are
    # all real, of the basis size n (the real form, not 2n real unknowns),
    # and each GMRES call solves one whole Lanczos block
    real = eigcore.gmres
    seen = []

    def gmres(apply, b, precondition, *args):
        seen.append(("rhs", b.dtype, b.shape))
        for name, f in (("matvec", apply), ("preconditioner", precondition)):
            y = f(b)
            seen.append((name, y.dtype, y.shape))
        x, iterations = real(apply, b, precondition, *args)
        seen.append(("solution", x.dtype, x.shape))
        return x, iterations

    monkeypatch.setattr(eigcore, "gmres", gmres)
    res = supercell.supercell_spectrum(V2d, W2d, 2, 8, WIN_2D, method="iterative")
    n, p = res.diagnostics["n_planewaves"], eigcore.LANCZOS_BLOCK
    assert {rec[0] for rec in seen} == {"rhs", "matvec", "preconditioner", "solution"}
    assert len(seen) * p == 4 * res.diagnostics["inner_solves"]
    for rec in seen:
        assert rec[1:] == (np.float64, (n, p)), rec


def test_iterative_window_uncertified_raises(V2d, W2d):
    # a window holding the whole spectrum has no value at or beyond its
    # half-width, so its completeness cannot be certified
    n = len(supercell.supercell_wavevectors(2, 2, 8))
    with pytest.raises(NotConverged, match="completeness"):
        supercell.supercell_spectrum(V2d, W2d, 2, 8, (-500.0, 500.0), method="iterative")
    assert n < eigcore.MAX_KRYLOV


@pytest.mark.parametrize(
    "d, L, N, far",
    [(1, 10, 160, None), (2, 2, 18, None), (1, 10, 160, 71)],
    ids=["1-10-160", "2-2-18", "1-10-160-far-v"],
)
def test_assemble_supercell_index_matches_lookup(V1d, W1d, V2d, W2d, d, L, N, far):
    # S read from the Fourier table must equal, bit for bit, the real form
    # Re H + (K Im H - Im H K)/2 (K the index reversal) of the H built with a
    # dict lookup of every shifted offset, the kinetic diagonal added last.
    # A V wavevector far beyond the basis (L * 71 = 710 > 2N) reaches no
    # mode pair; placed on the table's 1024-point grid it would alias onto
    # the difference 710 - 1024 = -314
    V, W = (V1d, W1d) if d == 1 else (V2d, W2d)
    if far is not None:
        V = model.PeriodicPotential(V.lattice, V.terms + [(0.7, "cos", (far,), 0.3)])
    got, _ = supercell.assemble_supercell(V, W, L, N)
    offs = supercell.supercell_wavevectors(d, L, N)
    n = len(offs)
    grid = supercell._coeff_grid(L, N)
    k = 2.0 * np.pi / (L * V.lattice.b) * offs
    H = np.zeros((n, n), dtype=complex)
    index = {tuple(row): i for i, row in enumerate(offs)}
    for m, c in V.fourier_coefficients().items():
        if c == 0:
            continue
        shift = np.asarray(m, dtype=int) * L
        rows = np.array([index.get(tuple(row), -1) for row in offs + shift[None, :]])
        keep = rows >= 0
        H[rows[keep], np.arange(n)[keep]] += c
    data, _ = model.perturbation_supercell_coefficients(W, L, grid=grid)
    D = [(offs[:, a][:, None] - offs[:, a][None, :]) % grid for a in range(d)]
    H += data[tuple(D)]
    S = 0.5 * (H.imag[::-1, :] - H.imag[:, ::-1]) + H.real
    S[np.diag_indices(n)] += np.sum(k * k, axis=1)
    assert got.dtype == np.float64
    assert np.array_equal(got, S)


def test_iterative_rejects_1d(V1d, W1d, window1d):
    with pytest.raises(ValueError):
        supercell.supercell_spectrum(V1d, W1d, 10, 160, window1d, method="iterative")


@pytest.mark.parametrize("d, method", [(1, "fibers"), (2, "Dense")])
def test_unknown_method_raises(V1d, W1d, V2d, W2d, monkeypatch, d, method):
    # an unknown method is refused by name before any work, also through a
    # convergence scan; "Dense" used to run the 2D iterative route silently
    V, W, win = (V1d, W1d, WIN_1D) if d == 1 else (V2d, W2d, WIN_2D)

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(supercell, "supercell_wavevectors", no_work)
    with pytest.raises(ValueError, match="auto/dense/iterative"):
        supercell.supercell_spectrum(V, W, 2, 18, win, method=method)
    with pytest.raises(ValueError, match="auto/dense/iterative"):
        supercell.convergence_scan(V, W, [2, 4], 9, win, method=method)


@pytest.mark.parametrize(
    "case",
    [
        lambda V, W, V2, W2: supercell.supercell_spectrum(V, W, 10, 160, WIN_1D, method="dense"),
        lambda V, W, V2, W2: supercell.supercell_spectrum(V, W, 40, 640, WIN_1D, method="dense"),
        lambda V, W, V2, W2: supercell.mismatched_supercell_spectrum(V, W, 20, 0.5, 328, WIN_1D),
        lambda V, W, V2, W2: supercell.supercell_spectrum(V2, W2, 2, 18, WIN_2D, method="dense"),
    ],
    ids=["1d-L10", "1d-L40", "1d-mismatched-t0.5", "2d-L2-N18"],
)
def test_real_form_matches_complex_oracle(V1d, W1d, V2d, W2d, monkeypatch, case):
    # every dense solve goes through the real form; it must agree with the
    # complex Hermitian eigh of the exponential-basis matrix of the same
    # modes and Fourier table
    seen = []
    real_form = supercell._real_form

    def spy(modes, kscale, table):
        seen.append((modes, kscale, table.copy()))
        return real_form(modes, kscale, table)

    monkeypatch.setattr(supercell, "_real_form", spy)
    res = case(V1d, W1d, V2d, W2d)
    ((modes, kscale, table),) = seen
    H = _complex_matrix(modes, kscale, table)
    assert np.any(H.imag != 0)
    want = sla.eigvalsh(H, subset_by_value=res.window)
    assert len(want) == len(res.eigenvalues) > 0
    assert np.max(np.abs(res.eigenvalues - want)) <= 1e-12
    # and over a wide window holding many values on both sides of the gap
    S = real_form(modes, kscale, table)
    wide = eigcore.solve_window(eigcore.SymmetricPencil(S), -5.0, 5.0).eigenvalues
    want = sla.eigvalsh(H, subset_by_value=(-5.0, 5.0))
    assert len(wide) == len(want) > 10
    assert np.max(np.abs(wide - want)) <= 1e-12


def _complex_matrix(modes, kscale, table):
    """diag(|k|^2) + table[m_i - m_j] on the planewaves modes (n, d): the
    supercell operator in the exponential basis, complex Hermitian."""
    g, d = table.shape[0], modes.shape[1]
    H = table[tuple((modes[:, None, a] - modes[None, :, a]) % g for a in range(d))]
    k = kscale * modes
    H[np.diag_indices(len(modes))] += np.sum(k * k, axis=1)
    return H


def _random_problem(d, seed):
    """A random centrally symmetric mode set in shuffled order, not the
    reversal order, and a random table with T[-x] = conj T[x] exactly."""
    rng = np.random.default_rng(seed)
    N = 6 if d == 1 else 4
    box = np.stack(np.meshgrid(*[np.arange(-N, N + 1)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    half = box[: len(box) // 2]  # the modes before 0 in lexicographic order
    pick = half[rng.random(len(half)) < 0.6]
    modes = np.concatenate([pick, -pick, np.zeros((1, d), dtype=int)])
    modes = modes[rng.permutation(len(modes))]
    g = supercell._coeff_grid(1, N)
    X = rng.standard_normal((g,) * d) + 1j * rng.standard_normal((g,) * d)
    mirror = np.roll(np.flip(X), 1, axis=tuple(range(d)))
    return modes, 0.3 + rng.random(), 0.5 * (X + mirror.conj()), rng


def test_real_form_recovers_spectrum():
    # for any centrally symmetric mode set, in any order, and any Hermitian
    # table, the lookup's real S has the spectrum of the complex H
    for d, seed in itertools.product((1, 2), range(5)):
        modes, kscale, table, _ = _random_problem(d, seed)
        H = _complex_matrix(modes, kscale, table)
        S = supercell._real_form(modes, kscale, table)
        assert S.dtype == np.float64 and np.array_equal(S, S.T)
        want = np.linalg.eigvalsh(H)
        assert np.max(np.abs(np.linalg.eigvalsh(S) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("part", ["generic", "real", "imag"])
def test_real_form_rejects_non_real(part):
    # a table with T[-x] != conj T[x] beyond SYMMETRY_TOL is not that of a
    # real potential, in 1D and 2D
    for d in (1, 2):
        modes, kscale, table, rng = _random_problem(d, 4)
        X = rng.standard_normal(table.shape)
        if part == "generic":
            table = X + 1j * rng.standard_normal(table.shape)
        elif part == "real":
            table = table + 1e-6 * X
        else:
            table = table + 1e-6j * X
        with pytest.raises(InvalidMatrix, match="reality defect"):
            supercell._real_form(modes, kscale, table)


def test_dense_route_memory(V2d, W2d):
    # the dense route builds the real S directly, with no complex H and
    # n x n index arrays: its traced peak stays within three real n x n
    # matrices (S, LAPACK's copy and the chunk temporaries)
    supercell.supercell_spectrum(V2d, W2d, 2, 18, WIN_2D, method="dense")
    tracemalloc.start()
    try:
        res = supercell.supercell_spectrum(V2d, W2d, 2, 18, WIN_2D, method="dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = res.diagnostics["n_planewaves"]
    assert peak <= 3 * n * n * 8


@pytest.mark.parametrize("ratio, L, N", [(8.2, 15, 123), (16.4, 15, 246)])
def test_convergence_scan_rounds_N(V1d, W1d, ratio, L, N):
    # ratio * L lands just below an integer; the scan must round as a
    # single-L run does, not truncate
    assert int(ratio * L) == N - 1
    (row,) = supercell.convergence_scan(V1d, W1d, [L], ratio, WIN_1D)
    assert row["N"] == N


# --- 1D fiber form: Bloch fibers plus a low-rank W, inertia-certified ---


@pytest.mark.parametrize("L, count", [(10, 2), (20, 2), (40, 2), (80, 4)])
def test_fiber_form_matches_dense(V1d, W1d, window1d, L, count):
    # the count is the dense count and the values the dense ones; at L=80
    # two values lie within 6e-6 of the window ends, which slicing handles
    fibers = supercell.supercell_spectrum(V1d, W1d, L, 16 * L, window1d)
    dense = supercell.supercell_spectrum(V1d, W1d, L, 16 * L, window1d, method="dense")
    diag = fibers.diagnostics
    assert diag["method"] == "fibers"
    assert fibers.count == len(fibers) == len(dense) == count
    assert np.max(np.abs(fibers.eigenvalues - dense.eigenvalues)) <= 1e-13
    assert fibers.residual_bound <= 1e-10
    assert diag["rank_w"] < diag["support_points"] < diag["n_planewaves"] == 32 * L + 1
    assert diag["lanczos_steps"] > 0


def test_fiber_form_mixed_sign_w(V1d, lat1d, window1d):
    # a W of both signs compresses each sign apart; the signature enters
    # the count
    W = model.Perturbation(
        lat1d,
        [
            {"coefficient": -1.0, "factors": [(2.0, 2)], "center": (0.0,), "sigma": 1.0},
            {"coefficient": 0.6, "factors": [(0.0, 0)], "center": (4.0,), "sigma": 0.7},
        ],
    )
    op = supercell.assemble_fiber_form(V1d, W, 20, 320)
    assert set(op.sign) == {-1.0, 1.0}
    # the fibers and W are taken in real form: the operator is real
    assert op.e.dtype == op.Y.dtype == np.float64
    fibers = supercell.supercell_spectrum(V1d, W, 20, 320, window1d)
    dense = supercell.supercell_spectrum(V1d, W, 20, 320, window1d, method="dense")
    assert fibers.count == len(fibers) == len(dense) > 0
    assert np.max(np.abs(fibers.eigenvalues - dense.eigenvalues)) <= 1e-13


def test_fiber_form_without_w_counts_fiber_values(V1d, empty_w):
    # with W = 0 the operator is the fibers alone: the count is the number
    # of fiber eigenvalues in the window, and they are the dense spectrum
    lo, hi = -1.2, 2.2
    op = supercell.assemble_fiber_form(V1d, empty_w, 10, 160)
    assert op.info["rank_w"] == 0 and op.info["support_points"] == 0
    res = supercell.supercell_spectrum(V1d, empty_w, 10, 160, (lo, hi))
    assert res.count == np.count_nonzero((op.e > lo) & (op.e < hi)) > 10
    dense = np.linalg.eigvalsh(supercell.assemble_supercell(V1d, empty_w, 10, 160)[0])
    want = dense[(dense > lo) & (dense < hi)]
    assert len(res) == len(want)
    assert np.max(np.abs(res.eigenvalues - want)) <= 1e-12


def test_fiber_form_end_on_eigenvalue_raises(V1d, W1d, window1d):
    # a window end within the compression bound of an eigenvalue leaves the
    # count undecided
    value = supercell.supercell_spectrum(V1d, W1d, 10, 160, window1d, method="dense").eigenvalues[0]
    with pytest.raises(ResolutionError, match="window end"):
        supercell.supercell_spectrum(V1d, W1d, 10, 160, (value, window1d[1]))


def test_fiber_form_krylov_cap_raises(V1d, W1d, window1d, monkeypatch):
    monkeypatch.setattr(eigcore, "MAX_KRYLOV", 2)
    with pytest.raises(NotConverged, match="certified"):
        supercell.supercell_spectrum(V1d, W1d, 10, 160, window1d)
