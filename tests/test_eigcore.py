"""Eigensolver wrappers against a self-contained Jacobi rotation oracle, and the
inertia-certified tridiagonal pencil, the diagonal-plus-low-rank operator and
the matrix-free operator (block GMRES, block Lanczos) against dense LAPACK."""

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import eigcore
from gapeig.errors import InvalidMatrix, NotConverged, PencilNotDefinite, ResolutionError


def jacobi_eigenvalues(A, sweeps=60, tol=1e-14):
    """Cyclic Jacobi for small real symmetric matrices; independent of LAPACK."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(max(0.0, np.sum(A**2) - np.sum(np.diag(A) ** 2)))
        if off < tol * max(1.0, np.max(np.abs(np.diag(A)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))


def random_pencil(rng, n, complex_=False):
    def herm(M):
        return 0.5 * (M + M.conj().T)

    if complex_:
        A = herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        A = herm(rng.standard_normal((n, n)))
        C = rng.standard_normal((n, n))
    B = C @ C.conj().T + n * np.eye(n)
    return eigcore.SymmetricPencil(A, herm(B))


def test_standard_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 5, 9, 16):
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        res = eigcore.solve_pencil(eigcore.SymmetricPencil(A))
        assert np.allclose(res.eigenvalues, jacobi_eigenvalues(A), atol=1e-10)


def test_generalized_matches_reduced_jacobi():
    # reduce (A, B) to standard form with an explicit Cholesky, then Jacobi
    rng = np.random.default_rng(5)
    n = 8
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    C = rng.standard_normal((n, n))
    B = C @ C.T + n * np.eye(n)
    Lc = np.linalg.cholesky(B)
    S = np.linalg.solve(Lc, np.linalg.solve(Lc, A.T).T)
    res = eigcore.solve_pencil(eigcore.SymmetricPencil(A, B))
    assert np.allclose(res.eigenvalues, jacobi_eigenvalues(S), atol=1e-10)


def test_window_matches_brute_filter():
    rng = np.random.default_rng(3)
    for trial in range(10):
        p = random_pencil(rng, 12)
        full = eigcore.solve_pencil(p, with_vectors=False).eigenvalues
        lo, hi = np.quantile(full, [0.25, 0.8])
        res = eigcore.solve_window(p, lo, hi)
        want = full[(full > lo) & (full < hi)]
        assert np.allclose(res.eigenvalues, want, atol=1e-11)


def test_lowest_matches_head():
    rng = np.random.default_rng(4)
    p = random_pencil(rng, 15, complex_=True)
    full = eigcore.solve_pencil(p, with_vectors=False).eigenvalues
    res = eigcore.solve_lowest(p, 4)
    assert np.allclose(res.eigenvalues, full[:4], atol=1e-11)


def test_residual_and_orthonormality_contracts():
    # the acceptance property: checked on 100 random pencils
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 25))
        p = random_pencil(rng, n, complex_=bool(rng.integers(2)))
        res = eigcore.solve_pencil(p)
        scale = max(1.0, np.max(np.abs(p.A)), np.max(np.abs(p.B)))
        assert res.residual_bound <= 1e-10 * n * scale
        assert res.orthonormality <= 1e-11 * n
        assert np.all(np.diff(res.eigenvalues) >= -1e-12)


def test_window_empty():
    p = eigcore.SymmetricPencil(np.diag([1.0, 2.0, 3.0]))
    res = eigcore.solve_window(p, 10.0, 11.0)
    assert len(res) == 0
    assert res.residual_bound == 0.0


def test_rejects_nonsymmetric():
    with pytest.raises(InvalidMatrix):
        eigcore.SymmetricPencil(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        eigcore.SymmetricPencil(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rejects_shape_mismatch():
    with pytest.raises(InvalidMatrix):
        eigcore.SymmetricPencil(np.eye(3), np.eye(2))
    with pytest.raises(InvalidMatrix):
        eigcore.SymmetricPencil(np.ones((2, 3)))


def test_rejects_indefinite_mass():
    A = np.eye(2)
    B = np.diag([1.0, -1.0])
    with pytest.raises(PencilNotDefinite):
        eigcore.SymmetricPencil(A, B)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_hermitian_defect_matches_complex_formula(complex_):
    # the check reads real views; it must give exactly what the complex
    # formula max|M - M^H| gives, so it is neither looser nor tighter
    rng = np.random.default_rng(8)
    n = 30
    X = rng.standard_normal((n, n))
    if complex_:
        X = X + 1j * rng.standard_normal((n, n))
    H = 0.5 * (X + X.conj().T)
    for planted in (0.0, 1e-14, 3e-9, 0.5):
        M = H.copy()
        M[3, 7] += planted * (1 + 1j if complex_ else 1)
        defect = float(np.max(np.abs(M - M.conj().T)))
        assert eigcore._hermitian_defect(M) == defect
        if defect > eigcore.SYMMETRY_TOL * max(1.0, float(np.max(np.abs(M)))):
            with pytest.raises(InvalidMatrix, match="not Hermitian"):
                eigcore.SymmetricPencil(M)
        else:
            eigcore.SymmetricPencil(M)
    M = H.copy()
    M[2, 2] = np.inf
    with pytest.raises(InvalidMatrix, match="non-finite"):
        eigcore.SymmetricPencil(M)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_standard_dense_solves_match_scipy_subset_oracle(complex_):
    # standard pencils take numpy's full eigh and then select; the selection
    # must reproduce LAPACK's subset drivers
    rng = np.random.default_rng(21)
    n = 60
    X = rng.standard_normal((n, n))
    if complex_:
        X = X + 1j * rng.standard_normal((n, n))
    A = 0.5 * (X + X.conj().T)
    p = eigcore.SymmetricPencil(A)
    full = sla.eigvalsh(A)
    scale = np.max(np.abs(full))
    lo, hi = 0.5 * (full[20] + full[21]), 0.5 * (full[33] + full[34])
    cases = [
        (lambda v: eigcore.solve_window(p, lo, hi, with_vectors=v),
         sla.eigh(A, subset_by_value=(lo, hi), eigvals_only=True)),
        (lambda v: eigcore.solve_lowest(p, 7, with_vectors=v),
         sla.eigh(A, subset_by_index=(0, 6), eigvals_only=True)),
    ]
    for solve, want in cases:
        for with_vectors in (False, True):
            res = solve(with_vectors)
            assert len(res) == len(want) > 0
            assert np.max(np.abs(res.eigenvalues - want)) <= 1e-12 * scale
            if with_vectors:
                V = res.eigenvectors
                assert res.residual_bound <= 1e-10
                assert np.max(np.linalg.norm(A @ V - V * res.eigenvalues, axis=0)) <= 1e-10
            else:
                assert res.eigenvectors is None


def test_window_requires_order():
    p = eigcore.SymmetricPencil(np.eye(2))
    with pytest.raises(ValueError):
        eigcore.solve_window(p, 1.0, -1.0)


def test_window_result_interior():
    # solve_window keeps its window; interior() drops the values within
    # DEFAULT_EDGE_GUARD of the window's width from an end
    p = eigcore.SymmetricPencil(np.diag([-0.5, 0.001, 0.5, 0.9999, 1.5]))
    res = eigcore.solve_window(p, 0, 1, with_vectors=False)
    assert res.window == (0.0, 1.0) and type(res.window[0]) is float
    assert res.diagnostics == {}
    assert np.array_equal(res.eigenvalues, [0.001, 0.5, 0.9999])
    assert np.array_equal(res.interior(), [0.5])
    assert np.array_equal(eigcore.interior_mask(res.eigenvalues, res.window, 0.0),
                          [True, True, True])
    # the guard band is closed: a value on its edge is not interior
    assert np.array_equal(eigcore.interior_mask([0.25, 0.5, 0.75], (0.0, 1.0), 0.25),
                          [False, True, False])
    assert eigcore.window_pair([1, 2]) == (1.0, 2.0)


def test_interior_needs_a_window():
    # solve_lowest and solve_pencil results have no window to guard
    p = eigcore.SymmetricPencil(np.diag([1.0, 2.0, 3.0]))
    for res in (eigcore.solve_lowest(p, 2), eigcore.solve_pencil(p)):
        assert res.window is None
        with pytest.raises(ValueError, match="no window"):
            res.interior()


def test_generalized_window_is_open():
    # scipy's value subset is (lo, hi]; a value on hi stays out of the window
    p = eigcore.SymmetricPencil(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    for with_vectors in (False, True):
        res = eigcore.solve_window(p, 1.0, 3.0, with_vectors=with_vectors)
        assert np.array_equal(res.eigenvalues, [2.0])


def test_tridiagonal_cholesky_matches_dense():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7):
        d, e = 2.0 + rng.random(n), rng.uniform(-0.5, 0.5, n - 1)
        ab = eigcore.tridiagonal_cholesky(d, e)
        R = np.diag(ab[1]) + np.diag(ab[0, 1:], 1)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.allclose(R, np.linalg.cholesky(T).T, rtol=0.0, atol=1e-14)
        assert np.allclose(sla.cho_solve_banded((ab, False), T), np.eye(n), rtol=0.0, atol=1e-13)
    with pytest.raises(np.linalg.LinAlgError):
        eigcore.tridiagonal_cholesky(np.array([1.0, -1.0]), np.array([0.0]))


# --- TridiagonalPencil: inertia-certified windowed solves, dense oracle ---


def random_tridiagonal(rng, n, k=0):
    """Tridiagonal (A, M) with M diagonally dominant, plus a k-column border
    of A (the mass of the border unknowns is the identity)."""
    a, b = rng.standard_normal(n), rng.standard_normal(n - 1)
    m, mo = 2.0 + rng.random(n), rng.uniform(-0.5, 0.5, n - 1)
    if not k:
        return eigcore.TridiagonalPencil((a, b), (m, mo))
    C = rng.standard_normal((n, k))
    G = rng.standard_normal((k, k))
    return eigcore.TridiagonalPencil((a, b), (m, mo), (C, G + G.T))


def dense_of(p):
    """Dense (A, M) of a TridiagonalPencil, assembled from its banded data:
    A with its border, M = blockdiag(T_M, I_k)."""
    def tri(d, e):
        return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)

    A, M = tri(p.a, p.a_off), tri(p.m, p.m_off)
    if p.border is None:
        return A, M
    C, G = p.border
    return np.block([[A, C], [C.T, G]]), sla.block_diag(M, np.eye(p.k))


def test_tridiagonal_matches_dense_oracle():
    # the sizes start at one tridiagonal row, with and without a border
    rng = np.random.default_rng(2024)
    for trial in range(120):
        n = trial // 2 + 1 if trial < 6 else int(rng.integers(1, 61))
        k = int(rng.integers(1, 11)) if trial % 2 else 0
        p = random_tridiagonal(rng, n, k)
        A, M = dense_of(p)
        full = sla.eigh(A, M, eigvals_only=True)
        windows = [(full[0] - 1.0, full[-1] + 1.0), tuple(np.sort(rng.uniform(full[0], full[-1], 2)))]
        for lo, hi in windows[: 1 if p.n == 1 else 2]:
            want = full[(full > lo) & (full < hi)]
            res = eigcore.solve_window(p, lo, hi)
            assert res.count == len(res) == len(want)
            assert np.allclose(res.eigenvalues, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(full)))
            V = res.eigenvectors
            assert np.max(np.abs(V.T @ M @ V - np.eye(len(want))), initial=0.0) <= 1e-10
            assert res.residual_bound <= 1e-9 * max(1.0, np.max(np.abs(full)))


@pytest.mark.parametrize("offset", [0.0, 1e-13, 1e-9])
def test_bordered_shift_near_bare_block_eigenvalue(offset):
    # the Lanczos shift (the window centre) lies offset from an eigenvalue
    # of the bare tridiagonal block, where eliminating the border first
    # loses digits: the solves are refined, or the shift is moved, and the
    # values and residuals still match the dense oracle
    rng = np.random.default_rng(12)
    p = random_tridiagonal(rng, 40, 3)
    A, M = dense_of(p)
    full = sla.eigh(A, M, eigvals_only=True)
    sigma = sla.eigh(A[:40, :40], M[:40, :40], eigvals_only=True)[20] + offset
    # the ends lie halfway between the second and third values nearest
    # sigma, and none hugs them, so one Lanczos run at sigma solves the window
    near = np.sort(np.abs(full - sigma))
    half = 0.5 * (near[1] + near[2])
    assert near[1] < (1.0 - 2.0 * eigcore.END_SLICE) * half
    assert near[2] > (1.0 + 2.0 * eigcore.END_SLICE) * half
    lo, hi = sigma - half, sigma + half
    want = full[(full > lo) & (full < hi)]
    res = eigcore.solve_window(p, lo, hi)
    assert res.count == len(res) == len(want) == 2
    assert np.allclose(res.eigenvalues, want, rtol=0.0, atol=1e-10)
    assert res.residual_bound <= 1e-10


def _two_copies(p):
    """The pencil diag(p, p), uncoupled, as one TridiagonalPencil (the two
    borders side by side), so every eigenvalue of p is exactly double."""
    def tri(d, e):
        return np.concatenate([d, d]), np.concatenate([e, [0.0], e])

    A, M = tri(p.a, p.a_off), tri(p.m, p.m_off)
    if not p.k:
        return eigcore.TridiagonalPencil(A, M)
    C, G = p.border
    Z = np.zeros_like(C)
    return eigcore.TridiagonalPencil(A, M, (np.block([[C, Z], [Z, C]]), sla.block_diag(G, G)))


@pytest.mark.parametrize("k", [0, 3], ids=["plain", "bordered"])
def test_tridiagonal_double_eigenvalues_match_dense_oracle(k):
    # the block Lanczos starts from two vectors, so a window holding exactly
    # one double value, or several, returns each twice with an independent
    # pair of M-orthonormal eigenvectors
    rng = np.random.default_rng(2025)
    p = _two_copies(random_tridiagonal(rng, 40, k))
    A, M = dense_of(p)
    full = sla.eigh(A, M, eigvals_only=True)
    assert np.max(np.abs(full[::2] - full[1::2])) <= 1e-12 * np.max(np.abs(full))
    for first, last in ((6, 7), (4, 11), (30, 45)):
        lo, hi = 0.5 * (full[first - 1] + full[first]), 0.5 * (full[last] + full[last + 1])
        res = eigcore.solve_window(p, lo, hi)
        assert res.count == len(res) == last + 1 - first
        assert np.allclose(res.eigenvalues, full[first : last + 1], rtol=1e-10, atol=1e-12)
        V = res.eigenvectors
        assert np.max(np.abs(V.T @ M @ V - np.eye(len(res)))) <= 1e-10
        assert res.residual_bound <= 1e-9 * max(1.0, np.max(np.abs(full)))


@pytest.mark.parametrize("n_t, k", [(31, 0), (30, 3)], ids=["plain", "bordered"])
def test_tridiagonal_odd_size_whole_spectrum(n_t, k):
    # an odd n with every eigenvalue in the window: the basis grows by blocks
    # of two and must still reach all n vectors, the last block cut to one
    rng = np.random.default_rng(7)
    p = random_tridiagonal(rng, n_t, k)
    assert p.n % 2 == 1
    A, M = dense_of(p)
    full = sla.eigh(A, M, eigvals_only=True)
    res = eigcore.solve_window(p, full[0] - 1.0, full[-1] + 1.0)
    assert res.count == len(res) == p.n == res.lanczos_steps
    assert np.allclose(res.eigenvalues, full, rtol=1e-10, atol=1e-10 * np.max(np.abs(full)))
    assert res.residual_bound <= 1e-9 * max(1.0, np.max(np.abs(full)))


def test_tridiagonal_negative_count_is_inertia():
    rng = np.random.default_rng(8)
    for k in (0, 3):
        p = random_tridiagonal(rng, 40, k)
        full = sla.eigh(*dense_of(p), eigvals_only=True)
        for s in rng.uniform(full[0] - 1.0, full[-1] + 1.0, 25):
            assert p.negative_count(s) == np.sum(full < s)


@pytest.mark.parametrize("seed", range(4))
def test_bordered_count_at_bare_block_eigenvalues(seed):
    # at the eigenvalues of the bare tridiagonal block, where it is singular
    # to working precision, the border's Schur complement is lost to
    # roundoff; the count is taken beside the shift and stays exact
    p = random_tridiagonal(np.random.default_rng(seed), 40, 3)
    A, M = dense_of(p)
    full = sla.eigh(A, M, eigvals_only=True)
    for s in sla.eigh(A[:40, :40], M[:40, :40], eigvals_only=True):
        assert p.negative_count(s) == np.sum(full < s)
        assert p.negative_count(s, zero_negative=True) == np.sum(full <= s)


def test_tridiagonal_empty_window():
    rng = np.random.default_rng(9)
    for k in (0, 4):
        p = random_tridiagonal(rng, 30, k)
        full = sla.eigh(*dense_of(p), eigvals_only=True)
        lo = full[10] + 0.25 * (full[11] - full[10])
        hi = full[10] + 0.75 * (full[11] - full[10])
        for res in (eigcore.solve_window(p, lo, hi), eigcore.solve_window(p, full[-1] + 1, full[-1] + 2)):
            assert len(res) == 0 and res.count == 0
            assert res.eigenvectors.shape == (p.n, 0)


def test_tridiagonal_open_window_ends():
    # exact eigenvalues 1..6 (diagonal tridiagonal block) and 1.5, 2.5 (border
    # corner): window ends lying on an eigenvalue exclude it
    tri = eigcore.TridiagonalPencil((np.arange(1.0, 7.0), np.zeros(5)), (np.ones(6), np.zeros(5)))
    bordered = eigcore.TridiagonalPencil(
        (np.arange(1.0, 7.0), np.zeros(5)),
        (np.ones(6), np.zeros(5)),
        (np.zeros((6, 2)), np.diag([1.5, 2.5])),
    )
    for p, lo, hi, want in (
        (tri, 2.0, 4.0, [3.0]),
        (tri, 1.0, 3.0, [2.0]),
        (tri, 2.0, 3.0, []),
        (tri, 0.0, 6.0, [1.0, 2.0, 3.0, 4.0, 5.0]),
        (bordered, 1.5, 2.5, [2.0]),
        (bordered, 1.5, 3.0, [2.0, 2.5]),
        (bordered, 1.25, 2.5, [1.5, 2.0]),
    ):
        res = eigcore.solve_window(p, lo, hi)
        assert res.count == len(want)
        assert np.allclose(res.eigenvalues, want, rtol=1e-12)
    # ends next to an eigenvalue of a random pencil, on either side
    rng = np.random.default_rng(10)
    for k in (0, 5):
        p = random_tridiagonal(rng, 50, k)
        full = sla.eigh(*dense_of(p), eigvals_only=True)
        d = 1e-7 * np.max(np.abs(full))
        for lo, hi, j0, j1 in (
            (full[5] - d, full[9] + d, 5, 10),
            (full[5] + d, full[9] - d, 6, 9),
            (full[5] - d, full[9] - d, 5, 9),
        ):
            res = eigcore.solve_window(p, lo, hi)
            assert res.count == j1 - j0
            assert np.allclose(res.eigenvalues, full[j0:j1], rtol=1e-10)


def test_tridiagonal_lowest_matches_dense():
    rng = np.random.default_rng(11)
    for n, k in ((2, 0), (25, 0), (25, 3), (60, 0)):
        p = random_tridiagonal(rng, n, k)
        full = sla.eigh(*dense_of(p), eigvals_only=True)
        for want in (1, min(5, p.n), p.n):
            res = eigcore.solve_lowest(p, want)
            assert np.allclose(res.eigenvalues, full[:want], rtol=1e-10, atol=1e-12)


def test_tridiagonal_rejects_indefinite_mass():
    a = (np.ones(4), np.zeros(3))
    with pytest.raises(PencilNotDefinite):
        eigcore.TridiagonalPencil(a, (np.array([1.0, 1.0, -1.0, 1.0]), np.zeros(3)))
    with pytest.raises(PencilNotDefinite):
        # positive diagonal, but the offdiagonal makes the block indefinite
        eigcore.TridiagonalPencil(a, (np.ones(4), np.full(3, 0.9)))


def test_tridiagonal_rejects_malformed():
    good = (np.ones(3), np.zeros(2))
    with pytest.raises(InvalidMatrix):
        eigcore.TridiagonalPencil((np.ones(3), np.zeros(3)), good)
    with pytest.raises(InvalidMatrix):
        eigcore.TridiagonalPencil((np.array([1.0, np.nan, 1.0]), np.zeros(2)), good)
    with pytest.raises(InvalidMatrix):
        eigcore.TridiagonalPencil(good, good, (np.zeros((3, 2)), np.ones((2, 2)) + np.eye(2, k=1)))


# --- DiagonalLowRank: Haynsworth counts and Woodbury solves, dense oracle ---


def random_low_rank(rng, n, k, signs):
    e = np.sort(rng.uniform(-3.0, 3.0, n))
    Y = 0.5 * rng.standard_normal((n, k))
    sign = rng.choice(signs, k).astype(float)
    op = eigcore.DiagonalLowRank(e, Y, sign)
    return op, np.diag(e) - (Y * sign) @ Y.T


@pytest.mark.parametrize("signs", [(1.0,), (-1.0,), (1.0, -1.0)], ids=["neg-w", "pos-w", "mixed"])
def test_diagonal_low_rank_matches_dense_oracle(signs):
    rng = np.random.default_rng(31)
    for n, k in ((40, 3), (90, 8)):
        op, H = random_low_rank(rng, n, k, signs)
        full = np.linalg.eigvalsh(H)
        for s in rng.uniform(full[0] - 1.0, full[-1] + 1.0, 20):
            assert op.negative_count(s) == np.sum(full < s)
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
        want = full[(full > lo) & (full < hi)]
        res = eigcore.solve_window(op, lo, hi)
        assert res.count == len(res) == len(want)
        assert np.max(np.abs(res.eigenvalues - want), initial=0.0) <= 1e-12
        assert res.residual_bound <= 1e-11
        assert np.max(np.abs(H @ res.eigenvectors - res.eigenvectors * res.eigenvalues), initial=0.0) <= 1e-11
        x = rng.standard_normal(n)
        assert np.allclose(op.shift_inverse(0.1)(x), np.linalg.solve(H - 0.1 * np.eye(n), x), rtol=1e-10)


def test_diagonal_low_rank_count_tolerance():
    # eigenvalues within tol of a window end leave the count undecided
    rng = np.random.default_rng(32)
    op, H = random_low_rank(rng, 30, 4, (1.0, -1.0))
    full = np.linalg.eigvalsh(H)
    op.tol = 1e-6
    lo, hi = full[3] - 0.5e-6, full[20] + 1e-3
    with pytest.raises(ResolutionError):
        op.count(lo, hi)
    assert op.count(full[3] + 2e-6, hi) == 17
    op.tol = 0.0
    assert op.count(lo, hi) == 18


def test_diagonal_low_rank_rejects_malformed():
    with pytest.raises(InvalidMatrix):
        eigcore.DiagonalLowRank(np.ones(3), np.ones((4, 1)), [1.0])
    with pytest.raises(InvalidMatrix):
        eigcore.DiagonalLowRank(np.ones(3), np.ones((3, 1)), [0.5])
    with pytest.raises(InvalidMatrix):
        eigcore.DiagonalLowRank(np.ones(3), np.full((3, 1), np.nan), [1.0])
    with pytest.raises(InvalidMatrix):
        eigcore.DiagonalLowRank(np.ones(3), np.ones((3, 1), dtype=complex), [1.0])


def random_matrix_free(rng, n, spectrum):
    """A MatrixFree operator Q diag(spectrum) Qᵀ with a random orthogonal Q,
    preconditioned by sign(d - sigma) / (|d - sigma| + 0.1), d = diag(H)
    (signed, indefinite where d - sigma changes sign, and far from exact);
    also returns the dense H."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    H = (Q * spectrum) @ Q.T
    H = 0.5 * (H + H.T)
    d = np.diag(H).copy()

    def precondition(sigma):
        weight = np.sign(d - sigma) / (np.abs(d - sigma) + 0.1)
        return lambda X: weight[:, None] * X

    return eigcore.MatrixFree(n, lambda x: H @ x, precondition), H


def test_gmres_matches_direct_solve():
    # an indefinite system with a signed, indefinite diagonal preconditioner
    rng = np.random.default_rng(41)
    op, H = random_matrix_free(rng, 60, np.linspace(-3.0, 5.0, 60))
    b = rng.standard_normal((60, 1))
    A = H - 0.37 * np.eye(60)
    M = op.precondition(0.37)
    assert np.min(M(np.ones((60, 1)))) < 0.0 < np.max(M(np.ones((60, 1))))
    x, iterations = eigcore.gmres(lambda v: A @ v, b, M, 1e-12, 100)
    assert x.shape == (60, 1)
    assert 0 < iterations <= 60
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(x[:, 0] - np.linalg.solve(A, b[:, 0])) <= 1e-9 * np.linalg.norm(x)
    with pytest.raises(NotConverged, match="GMRES"):
        eigcore.gmres(lambda v: A @ v, b, M, 1e-12, 3)


def test_block_gmres_random_invariant_and_zero_columns():
    # one block of three right-hand sides: a random one, one in a two-
    # dimensional invariant subspace of A and a zero one.  On its own the
    # invariant column is solved in two block iterations; in the block its
    # subspace runs out there, the lost direction is replaced, and the
    # random column goes on.  Every column matches a direct solve, and the
    # zero column's solution is exactly 0.
    rng = np.random.default_rng(44)
    spectrum = np.linspace(-3.0, 5.0, 60)
    Q = np.linalg.qr(rng.standard_normal((60, 60)))[0]
    A = (Q * (spectrum - 0.37)) @ Q.T
    A = 0.5 * (A + A.T)
    B = np.column_stack([rng.standard_normal(60), Q[:, 3] + 2.0 * Q[:, 50], np.zeros(60)])
    X, iterations = eigcore.gmres(lambda v: A @ v, B, lambda v: v.copy(), 1e-12, 100)
    assert np.all(np.isfinite(X)) and not np.any(X[:, 2])
    want = np.linalg.solve(A, B)
    for j in range(3):
        assert np.linalg.norm(X[:, j] - want[:, j]) <= 1e-9 * max(1.0, np.linalg.norm(want[:, j]))
    alone, count = eigcore.gmres(lambda v: A @ v, B[:, 1:], lambda v: v.copy(), 1e-12, 100)
    assert count == 2 < iterations
    assert not np.any(alone[:, 1])
    assert np.linalg.norm(alone[:, 0] - want[:, 1]) <= 1e-9 * np.linalg.norm(want[:, 1])
    # a cap that suffices for the invariant column only still raises
    with pytest.raises(NotConverged, match="GMRES"):
        eigcore.gmres(lambda v: A @ v, B, lambda v: v.copy(), 1e-12, iterations - 1)


def test_gmres_refuses_non_finite_preconditioner():
    # a preconditioner that divides by zero must not pass as a converged solve
    A = np.diag(np.arange(1.0, 7.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = 1.0 / (np.arange(1.0, 7.0) - 3.0)
        with pytest.raises(InvalidMatrix, match="non-finite"):
            eigcore.gmres(lambda v: A @ v, np.ones((6, 2)), lambda v: weight[:, None] * v, 1e-10, 10)


def test_shift_solver_recycles_one_space():
    # the blocks of one shift share a recycled pair (U, C), (A - sigma) U = C
    # with C orthonormal, that never outgrows its cap: each block matches
    # plain GMRES to its residual, and all of them take fewer operator
    # applications than plain GMRES does
    rng = np.random.default_rng(45)
    n, p, sigma = 80, eigcore.LANCZOS_BLOCK, 0.37
    op, H = random_matrix_free(rng, n, np.linspace(-3.0, 5.0, n))
    A = H - sigma * np.eye(n)
    M = op.precondition(sigma)
    solve = op.shift_inverse(sigma)
    plain = 0
    for _ in range(10):
        B = rng.standard_normal((n, p))
        X = solve(B)
        b = np.linalg.norm(B, axis=0)
        assert np.all(np.linalg.norm(A @ X - B, axis=0) <= 10 * eigcore.GMRES_RTOL * b)
        want, iterations = eigcore.gmres(lambda v: A @ v, B, M, eigcore.GMRES_RTOL,
                                         eigcore.GMRES_MAXITER)
        plain += iterations * p
        assert np.linalg.norm(X - want) <= 1e-8 * np.linalg.norm(want)
        pair = solve.recycled
        assert 0 < pair.size <= len(pair.C) == len(pair.U) == eigcore.GMRES_RECYCLE
    assert op.inner_solves == 10 * p
    assert op.inner_iterations < plain
    U, C = pair.U[: pair.size].T, pair.C[: pair.size].T
    assert np.linalg.norm(A @ U - C) <= 1e-12 * np.linalg.norm(A)
    assert np.max(np.abs(C.T @ C - np.eye(pair.size))) <= 1e-12
    # a block in span(C) is solved by its start U Cᵀ B, in one block iteration
    B = C[:, :p] + 0.5 * C[:, p : 2 * p]
    before = op.inner_iterations
    X = solve(B)
    assert np.all(np.linalg.norm(A @ X - B, axis=0) <= 10 * eigcore.GMRES_RTOL)
    assert np.linalg.norm(X - U @ (C.T @ B)) <= 1e-12 * np.linalg.norm(X)
    assert op.inner_iterations - before == p
    assert solve.recycled is pair


def test_gmres_recycled_pair_grows_with_its_relation():
    # a preconditioner that leaves the identity plus a compact part, as the
    # 2D supercell's does, lets each solve add fewer directions than the
    # cap, so later solves append to a pair they started from: A U = C and
    # the orthonormality of C hold at every size up to the cap
    rng = np.random.default_rng(47)
    n, p = 120, 2
    d = np.where(np.arange(n) % 2, 1.0, -1.0) * np.linspace(1.0, 4.0, n)
    Q = np.linalg.qr(rng.standard_normal((n, 24)))[0]
    A = np.diag(d) + (Q * 0.5 ** np.arange(24)) @ Q.T
    pair = eigcore.RecycledSpace(n, 32)
    sizes = []
    for _ in range(6):
        B = rng.standard_normal((n, p))
        X, _ = eigcore.gmres(lambda v: A @ v, B, lambda v: v / d[:, None], 1e-10, 100, pair)
        assert np.all(np.linalg.norm(A @ X - B, axis=0) <= 1e-9 * np.linalg.norm(B, axis=0))
        U, C = pair.U[: pair.size].T, pair.C[: pair.size].T
        assert np.linalg.norm(A @ U - C) <= 1e-13 * np.linalg.norm(A)
        assert np.max(np.abs(C.T @ C - np.eye(pair.size))) <= 1e-13
        sizes.append(pair.size)
    assert 0 < sizes[0] < sizes[1] < sizes[-1] == 32


def test_shift_solver_drops_a_failed_pair():
    # a pair whose relation (A - sigma) U = C no longer holds gives a
    # recycled solve a large true residual: the solver drops the pair for
    # the rest of the shift and solves the block again without it, both
    # attempts counted in inner_iterations
    rng = np.random.default_rng(46)
    n, p, sigma = 80, eigcore.LANCZOS_BLOCK, 0.37
    op, H = random_matrix_free(rng, n, np.linspace(-3.0, 5.0, n))
    A = H - sigma * np.eye(n)
    solve = op.shift_inverse(sigma)
    solve(rng.standard_normal((n, p)))
    pair = solve.recycled
    assert pair.size > 0 and solve.first <= 10 * eigcore.GMRES_RTOL
    pair.U[: pair.size] *= 1.0 + 1e-6
    B = rng.standard_normal((n, p))
    before = op.inner_iterations
    X = solve(B)
    assert solve.recycled is None
    assert np.all(np.linalg.norm(A @ X - B, axis=0) <= 10 * eigcore.GMRES_RTOL * np.linalg.norm(B, axis=0))
    _, iterations = eigcore.gmres(lambda v: A @ v, B, op.precondition(sigma), eigcore.GMRES_RTOL,
                                  eigcore.GMRES_MAXITER)
    assert op.inner_iterations - before > iterations * p


def test_matrix_free_window_matches_dense_with_double_value():
    # a double eigenvalue in the window is found twice: the block Lanczos
    # starts from two vectors; values are polished by Rayleigh-Ritz
    rng = np.random.default_rng(42)
    spectrum = np.concatenate([np.linspace(-4.0, -1.0, 40), [0.2, 0.2, 0.5], np.linspace(1.5, 6.0, 37)])
    op, H = random_matrix_free(rng, 80, spectrum)
    res = eigcore.solve_window(op, -0.5, 1.0)
    assert len(res) == 3
    assert np.max(np.abs(res.eigenvalues - [0.2, 0.2, 0.5])) <= 1e-12
    assert res.residual_bound <= 1e-8
    assert np.max(np.abs(H @ res.eigenvectors - res.eigenvectors * res.eigenvalues)) <= 1e-8
    assert op.inner_iterations > op.inner_solves == res.lanczos_steps > 0
    # a window with no value in it is found empty
    assert len(eigcore.solve_window(op, -0.9, 0.1)) == 0


@pytest.mark.parametrize("spectrum", [np.linspace(-1.0, 1.0, 20), np.repeat([-1.0, 0.3, 1.0], [7, 7, 6])],
                         ids=["distinct", "three-values"])
def test_matrix_free_whole_spectrum_is_uncertified(spectrum):
    # no value lies at or beyond the half-width of a window holding them
    # all; with three distinct values the Krylov space of two start vectors
    # is exhausted at 6 vectors, and the basis goes on from fresh ones
    rng = np.random.default_rng(43)
    op, _ = random_matrix_free(rng, 20, spectrum)
    with pytest.raises(NotConverged, match="completeness"):
        eigcore.solve_window(op, -10.0, 10.0)
    assert op.inner_solves == 20
