"""Hermitian eigenvalue solves with validated inputs and checked outputs.

Four operator types go through the same entry point solve_window, which
dispatches on the type (solve_lowest takes the first two):

- SymmetricPencil: dense Hermitian (A, B); a real A takes the real
  symmetric drivers.  Bloch fibers are real for a potential even about the
  origin (bloch sweeps one translated to its inversion centre when it has
  one) and complex otherwise (a quasimomentum q != 0 breaks the
  conjugation symmetry).  Dense planewave supercells are solved
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
  Parlett, The Symmetric Eigenvalue Problem).  Shifts are inverted by one
  sparse LU factorization each.
- DiagonalLowRank: diag(e) - Y diag(sign) Yᵀ with a real Y of rank k, the
  form of a 1D supercell in its real Bloch fiber eigenbasis.  Haynsworth
  inertia of a k x k matrix counts its eigenvalues below a shift, Woodbury
  inverts the shift in O(nk) per vector, and its count is certified
  against the distance tol to the operator it stands for (ResolutionError
  otherwise).

- MatrixFree: a real symmetric operator known by its action on blocks of
  columns, with a preconditioner for its shifts: the large 2D supercell.
  Shifts are inverted by preconditioned block MINRES (minres,
  Paige-Saunders with per-column scalars, on numpy alone), one call per
  Lanczos block.  There is no inertia count, so its window is found by a
  block shift-invert Lanczos whose completeness rule (a converged value at
  or beyond the window's half-width) stands in for one.

TridiagonalPencil and DiagonalLowRank share one certified shift-invert
Lanczos: the window is sliced by inertia counts where values hug its ends,
each piece is solved by a Lanczos run at its centre with one full
reorthogonalization per step.  The count certifies them: a solve that
cannot return exactly that many eigenvalues raises NotConverged.  Every
Lanczos route, MatrixFree's included, closes with one Rayleigh-Ritz step
with the true operator, which polishes the values and bounds their
residuals.

Every solve returns ascending eigenvalues and, on request, B-orthonormal
eigenvectors with a residual bound; structured solves always carry their
residual bound, inertia count and Lanczos steps, and MatrixFree ones their
residual bound and basis size.  TridiagonalPencil, DiagonalLowRank and
MatrixFree are real symmetric, so every Lanczos route runs in real
arithmetic; only a dense SymmetricPencil (a complex Bloch fiber) is ever
complex.

scipy is imported inside the functions that use it (the generalized dense
solve and TridiagonalPencil's factorizations), never at module level: a
Bloch sweep and a DiagonalLowRank or MatrixFree solve need only numpy, and
importing scipy.linalg (which loads its own copy of numpy's namespace) takes
longer than a whole 1D gap sweep, so a process that only locates a gap
would spend most of its time importing.
"""

import numpy as np

from gapeig.errors import InvalidMatrix, NotConverged, PencilNotDefinite, ResolutionError

SYMMETRY_TOL = 1e-12
# Lanczos: a Ritz pair counts as converged when its residual estimate is
# below LANCZOS_TOL * |theta|; the basis holds at most MAX_KRYLOV vectors.
LANCZOS_TOL = 1e-13
MAX_KRYLOV = 1000
CHECK_EVERY = 8
# start vectors are runs of the Weyl sequence frac(j * WEYL_STEP) - 1/2
# (weyl_vector), the golden ratio's conjugate as step
WEYL_STEP = (np.sqrt(5.0) - 1.0) / 2.0
# windowed solves take the end slices of END_SLICE times the width apart
# when they hold eigenvalues, at most MAX_SLICE_DEPTH levels deep
END_SLICE = 1.0 / 32
MAX_SLICE_DEPTH = 12
# MatrixFree: MINRES inner solves stop at relative residual MINRES_RTOL and
# fail after MINRES_MAXITER iterations; the block Lanczos takes blocks of
# LANCZOS_BLOCK vectors, and its Ritz pairs count as converged at residual
# estimates below INEXACT_TOL * |theta| (the inner solves' accuracy bounds
# how far below that the estimates can be trusted)
MINRES_RTOL = 1e-10
MINRES_MAXITER = 4000
LANCZOS_BLOCK = 2
INEXACT_TOL = 1e-10


def weyl_vector(n, start=0):
    """Terms start + 1 .. start + n of the Weyl sequence frac(j * WEYL_STEP) - 1/2.

    A deterministic start vector for iterative eigensolvers: its entries
    are equidistributed in [-1/2, 1/2), so it has no special alignment with
    any eigenvector, and it takes numpy's core alone (numpy.random is a
    sizeable import of its own).
    """
    j = np.arange(start + 1, start + n + 1, dtype=float)
    return (j * WEYL_STEP) % 1.0 - 0.5


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

    @property
    def mass(self):
        return self.M_sparse

    def apply(self, X):
        return self.A_sparse @ X

    def shift_inverse(self, sigma):
        """Solver of (A - sigma M) x = y from one sparse LU factorization.

        Natural order keeps the border last, and threshold pivoting keeps
        the factors inside the arrow pattern (full partial pivoting can swap
        border rows up and fill in O(n^2) entries).  LinAlgError when the
        factor is exactly singular.
        """
        import scipy.sparse.linalg as spla

        try:
            lu = spla.splu(self.A_sparse - sigma * self.M_sparse, permc_spec="NATURAL",
                           diag_pivot_thresh=0.1)
        except RuntimeError:
            raise np.linalg.LinAlgError("A - sigma M is exactly singular") from None
        return lu.solve

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


class DiagonalLowRank:
    """Real symmetric H = diag(e) - Y diag(sign) Yᵀ: a diagonal plus a
    rank-k term with signature sign (entries +1 or -1), Y real of shape
    (n, k); InvalidMatrix for a complex Y.

    A supercell in its real Bloch fiber eigenbasis has this form (e the
    fiber eigenvalues, Y the compressed perturbation).  Nothing n x n is
    formed.  With D = diag(e) - s, the bordered matrix [[D, Y], [Yᵀ, diag(sign)]]
    has the Schur complements H - s and C(s) = diag(sign) - Yᵀ D⁻¹ Y, so
    Haynsworth inertia additivity (Parlett, The Symmetric Eigenvalue
    Problem) counts the eigenvalues below s as

        nu(H - s) = nu(D) + nu(C(s)) - #{sign = -1}

    in O(n k^2), and Woodbury applies (H - s)⁻¹ = D⁻¹ + D⁻¹ Y C(s)⁻¹ Yᵀ D⁻¹
    in O(n k) once C(s) is factored.

    tol bounds the distance in norm from H to the operator it stands for
    (the part of a perturbation a compression dropped, plus roundoff):
    count certifies its window for every operator that close, and raises
    ResolutionError when it cannot.
    """

    mass = None

    def __init__(self, e, Y, sign, tol=0.0):
        self.e = _real_array(e, "diagonal", np.shape(e))
        if self.e.ndim != 1:
            raise InvalidMatrix("diagonal must be a vector")
        if np.ndim(Y) != 2:
            raise InvalidMatrix("Y must be a matrix, got shape %s" % (np.shape(Y),))
        self.Y = _real_array(Y, "Y", (len(self.e), np.shape(Y)[1]))
        self.sign = _real_array(sign, "signature", (self.Y.shape[1],))
        if not np.all(np.abs(self.sign) == 1.0):
            raise InvalidMatrix("signature entries must be +1 or -1")
        if not tol >= 0.0:
            raise ValueError("tol must be nonnegative")
        self.tol = float(tol)
        self.n, self.k = self.Y.shape
        self._n_minus = int(np.count_nonzero(self.sign < 0))

    def _schur(self, d):
        """C(s) = diag(sign) - Yᵀ D⁻¹ Y for D = diag(d)."""
        return np.diag(self.sign) - (self.Y.T / d) @ self.Y

    def negative_count(self, s):
        """Number of eigenvalues below s, by Haynsworth inertia."""
        d = self.e - s
        if not np.all(d):
            # D is exactly singular at s, so C(s) does not exist: count just below s
            return self.negative_count(s - 2.0**-40 * max(1.0, abs(s)))
        neg = int(np.count_nonzero(d < 0.0))
        if self.k:
            c = np.linalg.eigvalsh(self._schur(d))
            neg += int(np.count_nonzero(c < 0.0)) - self._n_minus
        return neg

    def count(self, lo, hi):
        """Number of eigenvalues in (lo, hi) of every operator within tol of H.

        The counts at each end ± tol must agree (no eigenvalue of H within
        tol of an end, so none can cross it); ResolutionError otherwise.
        """
        below = []
        for end in (lo, hi):
            left, right = self.negative_count(end - self.tol), self.negative_count(end + self.tol)
            if left != right:
                raise ResolutionError(
                    "%d eigenvalue(s) within %.3e of the window end %.17g: the count "
                    "is not certified" % (right - left, self.tol, end)
                )
            below.append(left)
        return below[1] - below[0]

    def apply(self, X):
        """H X for a block of columns X."""
        return self.e[:, None] * X - self.Y @ (self.sign[:, None] * (self.Y.T @ X))

    def shift_inverse(self, sigma):
        """Solver of (H - sigma) x = y by Woodbury, O(n k) per vector after
        one eigendecomposition of C(sigma); LinAlgError when H - sigma or D
        is exactly singular."""
        d = self.e - sigma
        if not np.all(d):
            raise np.linalg.LinAlgError("a diagonal entry equals the shift")
        if not self.k:
            return lambda y: y / d
        c, P = np.linalg.eigh(self._schur(d))
        if not np.all(c):
            raise np.linalg.LinAlgError("H - sigma is exactly singular")
        Z = (self.Y / d[:, None]) @ P

        def solve(y):
            return y / d + Z @ ((Z.T @ y) / c)

        return solve


def _column_dots(X, Y):
    """The dot products of corresponding columns of X and Y."""
    return np.einsum("ij,ij->j", X, Y)


def minres(apply, B, precondition, rtol, maxiter):
    """Solutions X of A X = B for a real symmetric A and a block B (n, p) of
    right-hand sides by preconditioned MINRES (Paige and Saunders, SIAM J.
    Numer. Anal. 12, 1975), and the number of iterations each column took.

    apply(V) = A V and precondition(V) = M⁻¹ V act on blocks of columns,
    with M symmetric positive definite.  The columns run one MINRES each,
    in lockstep: every scalar of the recurrence is kept per column, and a
    column leaves the active block when its own stop test fires.  The test
    is the reference implementation's: the residual estimate in the M⁻¹
    norm below rtol ||A|| ||x||, or the estimate of ||A r|| below
    rtol ||A|| ||r|| (norms of the preconditioned operator, estimated along
    the way), or the limits roundoff sets: x then lies at machine precision
    or on an eigenvector of a numerically singular A.  NotConverged when
    maxiter iterations do not suffice for every column.
    """
    eps = np.finfo(float).eps
    tol = max(rtol, eps)
    n, p = B.shape
    X = np.zeros((n, p))
    iterations = np.zeros(p, dtype=int)
    y = precondition(B)
    beta1 = _column_dots(B, y)
    if np.any(beta1 < 0.0):
        raise InvalidMatrix("MINRES preconditioner is not positive definite")
    # a zero right-hand side is solved by x = 0 in no iterations
    act = np.flatnonzero(beta1 > 0.0)
    beta1 = np.sqrt(beta1[act])
    r1 = r2 = B[:, act]
    y = y[:, act]
    x = w = w2 = np.zeros((n, len(act)))
    beta, phibar = beta1, beta1
    oldb = dbar = epsln = tnorm2 = gmax = sn = np.zeros(len(act))
    cs, gmin = np.full(len(act), -1.0), np.full(len(act), np.inf)
    itn = 0
    while len(act):
        itn += 1
        if itn > maxiter:
            raise NotConverged("MINRES did not reach rtol %.1e in %d iterations" % (rtol, maxiter))
        # one Lanczos step of the preconditioned operator
        v = y / beta
        y = apply(v)
        if itn > 1:
            y -= (beta / oldb) * r1
        alfa = _column_dots(v, y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = precondition(r2)
        oldb, beta = beta, _column_dots(r2, y)
        if np.any(beta < 0.0):
            raise InvalidMatrix("MINRES preconditioner is not positive definite")
        beta = np.sqrt(beta)
        tnorm2 = tnorm2 + alfa * alfa + oldb * oldb + beta * beta
        exact = (itn == 1) & (beta <= 10 * eps * beta1)
        # the previous plane rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.hypot(gbar, dbar)
        gamma = np.maximum(np.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        gmax, gmin = np.maximum(gmax, gamma), np.minimum(gmin, gamma)
        a_norm = np.sqrt(tnorm2)
        ax_norm = a_norm * np.linalg.norm(x, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            test1 = np.where(ax_norm > 0.0, phibar / ax_norm, np.inf)
            test2 = np.where(a_norm > 0.0, root / a_norm, np.inf)
        done = (exact | (test1 <= tol) | (test2 <= tol) | (gmax / gmin >= 0.1 / eps)
                | (ax_norm * eps >= beta1))
        if np.any(done):
            X[:, act[done]] = x[:, done]
            iterations[act[done]] = itn
            keep = ~done
            act = act[keep]
            x, w, w2, r1, r2, y = (a[:, keep] for a in (x, w, w2, r1, r2, y))
            beta1, beta, oldb, phibar, dbar, epsln, tnorm2, cs, sn, gmax, gmin = (
                a[keep]
                for a in (beta1, beta, oldb, phibar, dbar, epsln, tnorm2, cs, sn, gmax, gmin))
    return X, iterations


class MatrixFree:
    """Real symmetric operator A of size n known by its action alone, with
    a preconditioner for its shifts.

    matvec(X) = A X for a real block of columns X (n, p), and
    precondition(sigma) returns a function applying a symmetric positive
    definite approximation of |A - sigma|⁻¹ to such a block.  Shifts are
    inverted by preconditioned block MINRES (minres), to MINRES_RTOL;
    inner_solves and inner_iterations count the right-hand sides solved and
    their iterations, and a solve that fails raises NotConverged.  With no
    inertia count, solve_window finds its window by block shift-invert
    Lanczos (_block_lanczos), whose completeness rule stands in for one.
    """

    mass = None

    def __init__(self, n, matvec, precondition):
        self.n = int(n)
        self.matvec = matvec
        self.precondition = precondition
        self.inner_solves = 0
        self.inner_iterations = 0

    def apply(self, X):
        """A X for a block of columns X."""
        return self.matvec(X)

    def shift_inverse(self, sigma):
        """Solver of (A - sigma) X = Y for a block Y by block MINRES,
        preconditioned by precondition(sigma)."""
        M = self.precondition(sigma)

        def shifted(V):
            return self.matvec(V) - sigma * V

        def solve(Y):
            X, iterations = minres(shifted, Y, M, MINRES_RTOL, MINRES_MAXITER)
            self.inner_solves += Y.shape[1]
            self.inner_iterations += int(np.sum(iterations))
            return X

        return solve


class EigResult:
    """Eigenvalues in ascending order plus optional eigenvectors and diagnostics.

    residual_bound is max_j ||A v_j - lambda_j B v_j||_2 and orthonormality
    is ||V^H B V - I||_max; dense value-only solves leave both None.  count
    is the inertia count that certifies a structured solve and
    lanczos_steps the Lanczos steps it took over all window slices (both
    None for dense solves; a MatrixFree solve has no count, and its
    lanczos_steps is its basis size).
    """

    def __init__(self, eigenvalues, eigenvectors=None, residual_bound=None, orthonormality=None,
                 count=None, lanczos_steps=None):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = eigenvectors
        self.residual_bound = residual_bound
        self.orthonormality = orthonormality
        self.count = count
        self.lanczos_steps = lanczos_steps

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


def _lanczos(op, lo, hi, count):
    """One shift-invert Lanczos run at the centre sigma of (lo, hi).

    OP = (A - sigma M)^{-1} M is self-adjoint in the M inner product, so the
    Lanczos basis is kept M-orthonormal with one full reorthogonalization
    per step.  The start vectors are runs of the Weyl sequence
    (weyl_vector), so the result is deterministic.  Returns the count
    converged Ritz vectors nearest sigma with values inside, as columns, or
    None when fewer have converged once the basis is full; and the number
    of steps taken.
    """
    n = op.n
    M = op.mass
    sigma = 0.5 * (lo + hi)
    try:
        solve = op.shift_inverse(sigma)
    except np.linalg.LinAlgError:
        # sigma is an eigenvalue (exactly singular shift): move it off
        sigma += 1e-6 * (hi - lo)
        solve = op.shift_inverse(sigma)
    m_max = min(n, MAX_KRYLOV)
    Q = np.empty((m_max, n))
    MQ = Q if M is None else np.empty((m_max, n))
    alpha = np.zeros(m_max)
    beta = np.zeros(m_max)

    def project_out(v, j):
        # v minus its M-orthogonal projection on the first j basis vectors
        return v - Q[:j].T @ (MQ[:j] @ v)

    def start(j):
        # each start (at a distinct basis size j) takes its own run
        v = weyl_vector(n, j * n)
        for _ in range(2):
            v = project_out(v, j)
        Mv = v if M is None else M @ v
        nrm = np.sqrt(v @ Mv)
        return v / nrm, Mv / nrm

    q, Mq = start(0)
    check_at = count
    for j in range(m_max):
        Q[j], MQ[j] = q, Mq
        w = solve(Mq)
        if j:
            w -= beta[j - 1] * Q[j - 1]
        alpha[j] = Mq @ w
        w -= alpha[j] * q
        w = project_out(w, j + 1)
        Mw = w if M is None else M @ w
        beta[j] = np.sqrt(max(w @ Mw, 0.0))
        m = j + 1
        if m >= check_at or m == m_max:
            check_at = m + CHECK_EVERY
            T = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
            theta, S = np.linalg.eigh(T)
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
        return None, m
    pick = found[np.argsort(-np.abs(theta[found]), kind="stable")[:count]]
    return (S[:, pick].T @ Q[:m]).T, m


def _window_vectors(op, lo, hi, count):
    """Ritz vectors of the count eigenvalues in (lo, hi), as columns, and
    the Lanczos steps spent on them.

    A value hugging a window end converges slowly from the window centre,
    next to the values just outside that end.  So the window is sliced by
    counts first: when op.negative_count finds values in an end slice of
    END_SLICE times the width, that slice and the rest are solved apart,
    each by the same rule, down to MAX_SLICE_DEPTH levels.  Every piece
    is then solved by one Lanczos run at its centre; NotConverged when a
    run cannot return the piece's count.
    """
    below_hi = op.negative_count(hi)
    pending = [(lo, hi, below_hi - count, below_hi, 0)]
    blocks = []
    steps = 0
    while pending:
        a, b, below_a, below_b, depth = pending.pop()
        if below_b <= below_a:
            continue
        t = END_SLICE * (b - a)
        if depth < MAX_SLICE_DEPTH and a < a + t < b - t < b:
            below_at, below_bt = op.negative_count(a + t), op.negative_count(b - t)
            if below_at > below_a or below_bt < below_b:
                pending += [(a, a + t, below_a, below_at, depth + 1),
                            (a + t, b - t, below_at, below_bt, depth + 1),
                            (b - t, b, below_bt, below_b, depth + 1)]
                continue
        X, m = _lanczos(op, a, b, below_b - below_a)
        steps += m
        if X is None:
            raise NotConverged(
                "shift-invert Lanczos found fewer than the %d certified eigenvalues in "
                "(%.17g, %.17g) in %d steps" % (below_b - below_a, a, b, m)
            )
        blocks.append(X)
    return np.column_stack(blocks), steps


def _solve_structured(op, lo, hi, count, with_vectors):
    """Eigenpairs of a structured operator in (lo, hi), given the exact count there.

    op is a TridiagonalPencil or a DiagonalLowRank: it provides n, mass
    (M, or None for the identity), apply (A X), shift_inverse and
    negative_count.
    """
    if count == 0:
        V = np.zeros((op.n, 0)) if with_vectors else None
        return EigResult(np.zeros(0), V, 0.0, 0.0, 0, 0)
    X, steps = _window_vectors(op, lo, hi, count)
    w, V, resid, ortho = _rayleigh_ritz(op, X, lo, hi)
    return EigResult(w, V if with_vectors else None, resid, ortho, count, steps)


def _rayleigh_ritz(op, X, lo, hi):
    """Rayleigh-Ritz of op on the span of the columns of X, which must hold
    eigenvalues in (lo, hi) only: (w, V, resid, ortho).

    It polishes the values with the true operator and makes the vectors
    exactly M-orthonormal (vectors from different slices, or from inexact
    inner solves, are orthogonal only to the accuracy of their
    convergence).  resid is max ||A v - w M v|| and ortho ||Vᵀ M V - I||_max;
    NotConverged when a value leaves the window.
    """
    AX = op.apply(X)
    MX = X if op.mass is None else op.mass @ X
    Hs = X.T @ AX
    Ms = X.T @ MX
    Li = np.linalg.inv(np.linalg.cholesky(0.5 * (Ms + Ms.T)))
    R = Li @ Hs @ Li.T
    w, Z = np.linalg.eigh(0.5 * (R + R.T))
    if not np.all((w > lo) & (w < hi)):
        raise NotConverged(
            "%d eigenvalues certified in (%.17g, %.17g) but the solve returned %s"
            % (len(w), lo, hi, np.array2string(w, precision=17))
        )
    Y = Li.T @ Z
    V = X @ Y
    MV = MX @ Y
    resid = float(np.max(np.linalg.norm(AX @ Y - MV * w[None, :], axis=0)))
    ortho = float(np.max(np.abs(V.T @ MV - np.eye(len(w)))))
    return w, V, resid, ortho


def _orthonormal_rows(X, Q):
    """The rows of X made orthonormal and orthogonal to the orthonormal rows
    of Q: two projections, then a QR."""
    for _ in range(2):
        X = X - (X @ Q.T) @ Q
    return np.linalg.qr(X.T)[0].T


def _weyl_rows(n, runs):
    return np.array([weyl_vector(n, run * n) for run in runs])


def _block_lanczos(op, lo, hi):
    """Block shift-invert Lanczos for a MatrixFree op at the centre sigma of
    (lo, hi): Ritz vectors of the eigenvalues in the window, as columns,
    and the basis size.

    The basis grows by blocks of LANCZOS_BLOCK vectors from as many runs of
    the Weyl sequence, with two full reorthogonalizations per block; a
    block of two finds a double eigenvalue, which a single start vector
    sees as one (a value of higher multiplicity is found as a double one).
    The projected operator is block tridiagonal.  The window
    is complete once the Ritz values nearest sigma have converged up to and
    including the first one at or beyond the window's half-width from
    sigma; those before it are the window's values.  NotConverged when the
    basis (at most MAX_KRYLOV vectors) fills first.
    """
    n = op.n
    sigma = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    solve = op.shift_inverse(sigma)
    p = min(LANCZOS_BLOCK, n)
    m_max = p * (min(n, MAX_KRYLOV) // p)
    Q = np.zeros((m_max, n))
    T = np.zeros((m_max, m_max))
    Q[:p] = _orthonormal_rows(_weyl_rows(n, range(p)), Q[:0])
    for j in range(0, m_max, p):
        m = j + p
        W = solve(Q[j:m].T).T
        A = W @ Q[j:m].T
        T[j:m, j:m] = 0.5 * (A + A.T)
        for _ in range(2):
            W -= (W @ Q[:m].T) @ Q[:m]
        # what is left is Bᵀ times the next block: W = (U diag(s) Vt)ᵀ
        U, s, Vt = np.linalg.svd(W.T, full_matrices=False)
        B = s[:, None] * Vt
        theta, S = np.linalg.eigh(T[:m, :m])
        with np.errstate(divide="ignore"):
            lam = sigma + 1.0 / theta
        near = np.argsort(-np.abs(theta), kind="stable")
        beyond = np.flatnonzero(np.abs(lam[near] - sigma) >= half)
        if len(beyond):
            need = near[: beyond[0] + 1]
            resid = np.linalg.norm(B @ S[j:m, need], axis=0)
            if np.all(resid <= INEXACT_TOL * np.abs(theta[need])):
                return Q[:m].T @ S[:, need[:-1]], m
        if m == m_max:
            break
        lost = s <= 1e-12 * np.max(np.abs(theta))
        if np.any(lost):
            # an invariant subspace: continue from fresh directions
            B[lost] = 0.0
            U[:, lost] = _orthonormal_rows(
                _weyl_rows(n, m + np.flatnonzero(lost)), np.vstack([Q[:m], U[:, ~lost].T])
            ).T
        Q[m : m + p] = U.T
        T[m : m + p, j:m] = B
        T[j:m, m : m + p] = B.T
    raise NotConverged(
        "block shift-invert Lanczos filled its basis of %d vectors before a converged Ritz "
        "value reached the half-width of (%.17g, %.17g): the window's completeness cannot "
        "be certified" % (m_max, lo, hi)
    )


def _solve_matrix_free(op, lo, hi, with_vectors):
    """Eigenpairs of a MatrixFree op in (lo, hi): block Lanczos, then
    Rayleigh-Ritz with the true matvec, whose residual bound it carries."""
    X, steps = _block_lanczos(op, lo, hi)
    if X.shape[1] == 0:
        V = np.zeros((op.n, 0)) if with_vectors else None
        return EigResult(np.zeros(0), V, 0.0, 0.0, None, steps)
    w, V, resid, ortho = _rayleigh_ritz(op, X, lo, hi)
    return EigResult(w, V if with_vectors else None, resid, ortho, None, steps)


def solve_window(pencil, lo, hi, with_vectors=True):
    """Eigenpairs with eigenvalues inside the open interval (lo, hi)."""
    if not (lo < hi):
        raise ValueError("window requires lo < hi")
    if isinstance(pencil, SymmetricPencil):
        return _solve_dense(pencil, with_vectors, by_value=(lo, hi))
    if isinstance(pencil, MatrixFree):
        return _solve_matrix_free(pencil, lo, hi, with_vectors)
    return _solve_structured(pencil, lo, hi, pencil.count(lo, hi), with_vectors)


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
        return EigResult(res.eigenvalues[:k], V, res.residual_bound, res.orthonormality, count,
                         res.lanczos_steps)
    return _solve_dense(pencil, with_vectors, by_index=(0, k - 1))
