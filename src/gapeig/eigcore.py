"""Hermitian eigenvalue solves with validated inputs and checked outputs.

Two pencil types go through the same entry points, solve_window and
solve_lowest, which dispatch on the type:

- SymmetricPencil: dense Hermitian (A, B); a real A takes the real
  symmetric drivers.  Bloch fibers are complex (a quasimomentum q != 0
  breaks the conjugation symmetry).  Dense planewave supercells are solved
  in their real symmetric form, which supercell.solve_real_form builds from
  the complex exponential-basis matrix after checking that the operator is
  real (SYMMETRY_TOL bounds that reality defect as well).  The standard
  problem (B=None: Bloch fibers, real supercell forms) goes through numpy's
  LAPACK (numpy.linalg.eigh), full spectrum first and then the window or
  the k lowest; the generalized problem uses scipy.linalg.eigh's subset
  drivers.
- TridiagonalPencil: real symmetric tridiagonal (A, M), optionally bordered
  by k dense columns and their k x k corner.  Every P1 finite element pencil
  is one (k = 0 for the Galerkin and dislocation pencils, k = n_aug for the
  projector-augmented ones).  It is validated in O(n k^2) and never
  densified.  The number of eigenvalues in a window is counted exactly by
  Sylvester inertia: the LDL^T pivots of the tridiagonal block plus, with a
  border, the inertia of the k x k Schur complement (Haynsworth additivity;
  Parlett, The Symmetric Eigenvalue Problem).  The eigenpairs come from
  shift-invert Lanczos at the window centre on one sparse LU factorization,
  and the count certifies them: a solve that cannot return exactly that
  many eigenvalues raises NotConverged.

Every solve returns ascending eigenvalues and, on request, B-orthonormal
eigenvectors with a residual bound; TridiagonalPencil solves always carry
their residual bound and inertia count.

scipy is imported inside the functions that use it (the generalized dense
solve and everything TridiagonalPencil does), never at module level: a Bloch
sweep needs only numpy, and importing scipy.linalg (which loads its own copy
of numpy's namespace) takes longer than a whole 1D gap sweep, so a process
that only locates a gap would spend most of its time importing.
"""

import numpy as np

from gapeig.errors import InvalidMatrix, NotConverged, PencilNotDefinite

SYMMETRY_TOL = 1e-12
# Lanczos: a Ritz pair counts as converged when its residual estimate is
# below LANCZOS_TOL * |theta|; the basis holds at most MAX_KRYLOV vectors.
LANCZOS_TOL = 1e-13
MAX_KRYLOV = 1000
CHECK_EVERY = 8
LANCZOS_SEED = 0


def _max_abs(x):
    """max |x| of a real array without an |x| temporary (NaN when x has one)."""
    return float(max(np.max(x), -np.min(x)))


def _hermitian_defect(M):
    """max |M_ij - conj(M_ji)| of a square array, with no complex arithmetic.

    For a complex M the real and imaginary parts of M - Mᴴ, R - Rᵀ and
    J + Jᵀ from the views R, J of M, are written into the two halves of one
    buffer that is then read as complex: the modulus is numpy's complex abs
    of the very values the complex formula forms, with no conjugate copy
    and no complex subtraction.
    """
    if not np.iscomplexobj(M):
        return _max_abs(M - M.T)
    R, J = M.real, M.imag
    buf = np.empty(M.shape + (2,), dtype=R.dtype)
    np.subtract(R, R.T, out=buf[..., 0])
    np.add(J, J.T, out=buf[..., 1])
    return float(np.max(np.abs(buf.view(M.dtype)[..., 0])))


def _check_hermitian(M, name):
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidMatrix("%s must be square, got shape %s" % (name, (M.shape,)))
    if not M.size:
        return M
    # max |M_ij|; NaN or inf exactly when some entry is not finite
    peak = float(np.max(np.abs(M))) if np.iscomplexobj(M) else _max_abs(M)
    if not np.isfinite(peak):
        raise InvalidMatrix("%s contains non-finite entries" % name)
    defect = _hermitian_defect(M)
    if defect > SYMMETRY_TOL * max(1.0, peak):
        raise InvalidMatrix(
            "%s is not Hermitian: defect %.3e exceeds %.0e * scale" % (name, defect, SYMMETRY_TOL)
        )
    return M


class SymmetricPencil:
    """Pencil (A, B) with A Hermitian and B Hermitian positive definite.

    B=None means the identity.  Construction validates shapes, finiteness,
    Hermiticity (within 1e-12 relative to the largest entry) and, when B is
    given, positive definiteness via a Cholesky factorization.
    """

    def __init__(self, A, B=None):
        self.A = _check_hermitian(A, "A")
        if B is None:
            self.B = None
        else:
            self.B = _check_hermitian(B, "B")
            if self.B.shape != self.A.shape:
                raise InvalidMatrix("A and B must have the same shape")
            try:
                np.linalg.cholesky(self.B)
            except np.linalg.LinAlgError:
                raise PencilNotDefinite("B is not positive definite") from None

    @property
    def n(self):
        return self.A.shape[0]


def _real_array(x, name, shape):
    x = np.asarray(x)
    if not np.isrealobj(x):
        raise InvalidMatrix("%s must be real" % name)
    x = x.astype(float)
    if x.shape != shape:
        raise InvalidMatrix("%s must have shape %s, got %s" % (name, shape, x.shape))
    if not np.all(np.isfinite(x)):
        raise InvalidMatrix("%s contains non-finite entries" % name)
    return x


def _tridiagonal(pair, name):
    diag, off = pair
    d = _real_array(diag, name + " diagonal", np.shape(diag))
    if d.ndim != 1 or len(d) == 0:
        raise InvalidMatrix("%s diagonal must be a nonempty vector" % name)
    return d, _real_array(off, name + " offdiagonal", (len(d) - 1,))


def _border(border, name, n_t):
    C, G = (np.asarray(x) for x in border)
    if C.ndim != 2:
        raise InvalidMatrix("%s border columns must be a matrix" % name)
    k = C.shape[1]
    C = _real_array(C, name + " border columns", (n_t, k))
    G = _real_array(_check_hermitian(G, name + " corner"), name + " corner", (k, k))
    return C, G


def _banded(d, e):
    """LAPACK (1, 1) band storage of the symmetric tridiagonal (d, e)."""
    ab = np.zeros((3, len(d)))
    ab[0, 1:] = e
    ab[1] = d
    ab[2, :-1] = e
    return ab


def _assemble(d, e, border):
    import scipy.sparse as sp

    T = sp.diags([e, d, e], [-1, 0, 1])
    if border is None:
        return T.tocsc()
    C, G = border
    return sp.bmat([[T, sp.csc_matrix(C)], [sp.csc_matrix(C.T), sp.csc_matrix(G)]]).tocsc()


class TridiagonalPencil:
    """Real symmetric pencil (A, M) of tridiagonal matrices, optionally bordered.

        A = [[T_A, C_A], [C_A^T, G_A]],   M = [[T_M, C_M], [C_M^T, G_M]]

    T_A, T_M are tridiagonal, given as (diagonal, first offdiagonal); the
    optional borders are (C, G) with C the n_t x k dense columns and G the
    symmetric k x k corner.  Both borders or neither must be given; k = 0
    is the plain tridiagonal pencil.  Construction checks shapes and
    finiteness and that M is positive definite: T_M has a banded Cholesky
    factor (every LDL^T pivot is positive) and the Schur complement
    G_M - C_M^T T_M^{-1} C_M has a Cholesky factor; PencilNotDefinite
    otherwise.  Cost O(n k^2); nothing n x n is formed.
    """

    def __init__(self, A, M, A_border=None, M_border=None):
        self.a, self.a_off = _tridiagonal(A, "A")
        self.m, self.m_off = _tridiagonal(M, "M")
        n_t = len(self.a)
        if len(self.m) != n_t:
            raise InvalidMatrix("A and M must have the same shape")
        if (A_border is None) != (M_border is None):
            raise InvalidMatrix("give both borders or neither")
        self.A_border = self.M_border = None
        if A_border is not None:
            self.A_border = _border(A_border, "A", n_t)
            self.M_border = _border(M_border, "M", n_t)
            if self.A_border[0].shape != self.M_border[0].shape:
                raise InvalidMatrix("A and M borders must have the same shape")
            if self.A_border[0].shape[1] == 0:
                self.A_border = self.M_border = None
        self.k = 0 if self.A_border is None else self.A_border[0].shape[1]
        self.n = n_t + self.k
        import scipy.linalg as sla

        try:
            chol = sla.cholesky_banded(_banded(self.m, self.m_off)[:2])
        except np.linalg.LinAlgError:
            raise PencilNotDefinite("tridiagonal block of M is not positive definite") from None
        if self.k:
            C, G = self.M_border
            schur = G - C.T @ sla.cho_solve_banded((chol, False), C)
            try:
                np.linalg.cholesky(0.5 * (schur + schur.T))
            except np.linalg.LinAlgError:
                raise PencilNotDefinite("Schur complement of M's border is not positive definite") from None
        self.A_sparse = _assemble(self.a, self.a_off, self.A_border)
        self.M_sparse = _assemble(self.m, self.m_off, self.M_border)

    def negative_count(self, s, zero_negative=False):
        """Number of negative eigenvalues of A - s M, i.e. of eigenvalues below s.

        Sylvester inertia: the negative LDL^T pivots of the tridiagonal
        block, plus with a border the negative eigenvalues of the Schur
        complement.  An exactly zero pivot (an eigenvalue at s) counts as
        negative when zero_negative is set, so the call then counts
        eigenvalues <= s.
        """
        d = (self.a - s * self.m).tolist()
        e = self.a_off - s * self.m_off
        e2 = [0.0] + (e * e).tolist()
        tiny = -np.finfo(float).tiny if zero_negative else np.finfo(float).tiny
        neg = 0
        p = 1.0
        for di, ei2 in zip(d, e2):
            p = di - ei2 / p
            if p == 0.0:
                p = tiny
            if p < 0.0:
                neg += 1
        if self.k:
            (CA, GA), (CM, GM) = self.A_border, self.M_border
            Cs = CA - s * CM
            import scipy.linalg as sla

            try:
                Z = sla.solve_banded((1, 1), _banded(self.a - s * self.m, e), Cs)
            except np.linalg.LinAlgError:
                # the tridiagonal block is exactly singular at s, so the Schur
                # complement does not exist there: count just beside s, on the
                # side the zero-pivot convention selects
                step = 2.0**-40 * max(1.0, abs(s))
                return self.negative_count(s + step if zero_negative else s - step, zero_negative)
            schur = GA - s * GM - Cs.T @ Z
            w = np.linalg.eigvalsh(0.5 * (schur + schur.T))
            neg += int(np.sum(w <= 0.0)) if zero_negative else int(np.sum(w < 0.0))
        return neg

    def count(self, lo, hi):
        """Exact number of eigenvalues in the open interval (lo, hi)."""
        return self.negative_count(hi) - self.negative_count(lo, zero_negative=True)


class EigResult:
    """Eigenvalues in ascending order plus optional eigenvectors and diagnostics.

    residual_bound is max_j ||A v_j - lambda_j B v_j||_2 and orthonormality
    is ||V^H B V - I||_max; dense value-only solves leave both None.  count
    is the inertia count that certifies a TridiagonalPencil solve (None for
    dense solves).
    """

    def __init__(self, eigenvalues, eigenvectors=None, residual_bound=None, orthonormality=None,
                 count=None):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = eigenvectors
        self.residual_bound = residual_bound
        self.orthonormality = orthonormality
        self.count = count

    def __len__(self):
        return len(self.eigenvalues)


def _diagnostics(pencil, w, V):
    if len(w) == 0:
        return 0.0, 0.0
    AV = pencil.A @ V
    BV = V if pencil.B is None else pencil.B @ V
    resid = float(np.max(np.linalg.norm(AV - BV * w[None, :], axis=0)))
    gram = V.conj().T @ BV
    ortho = float(np.max(np.abs(gram - np.eye(len(w)))))
    return resid, ortho


def _finish(pencil, w, V):
    order = np.argsort(w, kind="stable")
    w = np.asarray(w)[order]
    if V is None:
        return EigResult(w)
    V = V[:, order]
    resid, ortho = _diagnostics(pencil, w, V)
    return EigResult(w, V, resid, ortho)


def _solve_dense(pencil, with_vectors, by_value=None, by_index=None):
    """Dense solve of a SymmetricPencil, all of it or the part by_value (an
    open interval) or by_index (first and last 0-based index) selects.

    The standard problem takes numpy's LAPACK over the full spectrum and then
    selects; the generalized one takes scipy's subset drivers.
    """
    A, B = pencil.A, pencil.B
    if B is not None:
        import scipy.linalg as sla

        driver = None if by_value is None and by_index is None else "gvx"
        out = sla.eigh(A, B, subset_by_value=by_value, subset_by_index=by_index, driver=driver,
                       eigvals_only=not with_vectors)
        w, V = out if with_vectors else (out, None)
        return _finish(pencil, w, V)
    w, V = np.linalg.eigh(A) if with_vectors else (np.linalg.eigvalsh(A), None)
    if by_value is not None:
        keep = (w > by_value[0]) & (w < by_value[1])
    elif by_index is not None:
        keep = slice(by_index[0], by_index[1] + 1)
    else:
        keep = slice(None)
    return _finish(pencil, w[keep], None if V is None else V[:, keep])


def solve_pencil(pencil, with_vectors=True):
    """Full eigendecomposition of a dense pencil."""
    return _solve_dense(pencil, with_vectors)


def _lanczos(pencil, lo, hi, count):
    """Shift-invert Lanczos at the centre of (lo, hi) until count Ritz pairs
    with values inside have converged.

    OP = (A - sigma M)^{-1} M is self-adjoint in the M inner product, so the
    Lanczos basis is kept M-orthonormal with one full reorthogonalization
    per step.  The start vector comes from a fixed seed, so the result is
    deterministic.  Returns the count converged Ritz vectors nearest sigma,
    as columns.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    n = pencil.n
    M = pencil.M_sparse
    sigma = 0.5 * (lo + hi)
    # natural order keeps the border last, and threshold pivoting keeps the
    # factors inside the arrow pattern (full partial pivoting can swap border
    # rows up and fill in O(n^2) entries)
    factor = lambda s: spla.splu(pencil.A_sparse - s * M, permc_spec="NATURAL", diag_pivot_thresh=0.1)
    try:
        lu = factor(sigma)
    except RuntimeError:
        # sigma is an eigenvalue (exactly singular factor): move it off
        sigma += 1e-6 * (hi - lo)
        lu = factor(sigma)
    m_max = min(n, MAX_KRYLOV)
    Q = np.empty((m_max, n))
    MQ = np.empty((m_max, n))
    alpha = np.zeros(m_max)
    beta = np.zeros(m_max)
    rng = np.random.default_rng(LANCZOS_SEED)

    def start(j):
        v = rng.standard_normal(n)
        for _ in range(2):
            v -= Q[:j].T @ (MQ[:j] @ v)
        Mv = M @ v
        nrm = np.sqrt(v @ Mv)
        return v / nrm, Mv / nrm

    q, Mq = start(0)
    check_at = count
    for j in range(m_max):
        Q[j], MQ[j] = q, Mq
        w = lu.solve(Mq)
        if j:
            w -= beta[j - 1] * Q[j - 1]
        alpha[j] = Mq @ w
        w -= alpha[j] * q
        w -= Q[: j + 1].T @ (MQ[: j + 1] @ w)
        Mw = M @ w
        beta[j] = np.sqrt(max(float(w @ Mw), 0.0))
        m = j + 1
        if m >= check_at or m == m_max:
            check_at = m + CHECK_EVERY
            theta, S = sla.eigh_tridiagonal(alpha[:m], beta[: m - 1])
            with np.errstate(divide="ignore"):
                lam = sigma + 1.0 / theta
            good = (lam > lo) & (lam < hi) & (np.abs(beta[j] * S[-1]) <= LANCZOS_TOL * np.abs(theta))
            if np.count_nonzero(good) >= count or m == m_max:
                break
        if beta[j] <= 1e-12 * np.max(np.abs(alpha[:m])):
            # invariant subspace found: continue from a fresh direction
            beta[j] = 0.0
            q, Mq = start(m)
        else:
            q, Mq = w / beta[j], Mw / beta[j]
    found = np.flatnonzero(good)
    if len(found) < count:
        raise NotConverged(
            "shift-invert Lanczos found %d of %d certified eigenvalues in %d steps"
            % (len(found), count, m)
        )
    pick = found[np.argsort(-np.abs(theta[found]), kind="stable")[:count]]
    return (S[:, pick].T @ Q[:m]).T


def _solve_structured(pencil, lo, hi, count, with_vectors):
    """Eigenpairs of a TridiagonalPencil in (lo, hi), given the exact count there."""
    if count == 0:
        return EigResult(np.zeros(0), np.zeros((pencil.n, 0)) if with_vectors else None, 0.0, 0.0, 0)
    import scipy.linalg as sla

    X = _lanczos(pencil, lo, hi, count)
    # Rayleigh-Ritz on the converged vectors polishes the values and makes
    # the vectors exactly M-orthonormal
    AX = pencil.A_sparse @ X
    MX = pencil.M_sparse @ X
    Hs = X.T @ AX
    Ms = X.T @ MX
    w, Y = sla.eigh(0.5 * (Hs + Hs.T), 0.5 * (Ms + Ms.T))
    if not np.all((w > lo) & (w < hi)):
        raise NotConverged(
            "%d eigenvalues certified in (%.17g, %.17g) but the solve returned %s"
            % (count, lo, hi, np.array2string(w, precision=17))
        )
    V = X @ Y
    MV = MX @ Y
    resid = float(np.max(np.linalg.norm(AX @ Y - MV * w[None, :], axis=0)))
    ortho = float(np.max(np.abs(V.T @ MV - np.eye(count))))
    return EigResult(w, V if with_vectors else None, resid, ortho, count)


def solve_window(pencil, lo, hi, with_vectors=True):
    """Eigenpairs with eigenvalues inside the open interval (lo, hi)."""
    if not (lo < hi):
        raise ValueError("window requires lo < hi")
    if isinstance(pencil, TridiagonalPencil):
        return _solve_structured(pencil, lo, hi, pencil.count(lo, hi), with_vectors)
    return _solve_dense(pencil, with_vectors, by_value=(lo, hi))


def _lowest_window(pencil, k):
    """An interval (lo, hi) holding exactly the k lowest eigenvalues, from
    inertia counts: lo lies below the spectrum and hi is bisected into
    (lambda_k, lambda_{k+1}], or to within roundoff of a multiple lambda_k."""
    lo = -1.0
    while pencil.negative_count(lo, zero_negative=True):
        lo *= 2.0
    hi = 1.0
    while pencil.negative_count(hi) < k:
        hi *= 2.0
    a, n_hi = lo, pencil.negative_count(hi)
    while n_hi > k:
        mid = 0.5 * (a + hi)
        if not a < mid < hi:
            break
        n_mid = pencil.negative_count(mid)
        if n_mid >= k:
            hi, n_hi = mid, n_mid
        else:
            a = mid
    return lo, hi


def solve_lowest(pencil, k, with_vectors=True):
    """The k smallest eigenpairs."""
    if not (1 <= k <= pencil.n):
        raise ValueError("k must be between 1 and n")
    if isinstance(pencil, TridiagonalPencil):
        lo, hi = _lowest_window(pencil, k)
        count = pencil.count(lo, hi)
        res = _solve_structured(pencil, lo, hi, count, True)
        V = res.eigenvectors[:, :k] if with_vectors else None
        return EigResult(res.eigenvalues[:k], V, res.residual_bound, res.orthonormality, count)
    return _solve_dense(pencil, with_vectors, by_index=(0, k - 1))
