"""Hermitian eigenvalue solves with validated inputs and checked outputs.

Four operator types go through the same entry point solve_window, which
dispatches on the type (solve_lowest takes the first two):

- SymmetricPencil: dense Hermitian (A, B); a real A takes the real
  symmetric drivers.  Bloch fibers are real for a potential even about the
  origin (bloch sweeps one translated to its inversion centre when it has
  one) and complex otherwise (a quasimomentum q != 0 breaks the
  conjugation symmetry).  Dense planewave supercells are solved
  in their real symmetric form, which supercell._real_form reads directly
  from the Fourier table of the potential after checking that the table is
  that of a real potential (SYMMETRY_TOL bounds that reality defect as
  well).  The standard
  problem (B=None: Bloch fibers, real supercell forms) goes through numpy's
  LAPACK (numpy.linalg.eigh), full spectrum first and then the window or
  the k lowest; the generalized problem goes through gapeig.lapack, its
  full spectrum (*gvd) and then the window, or the k lowest alone (*gvx).
- TridiagonalPencil: real symmetric tridiagonal (A, M), A optionally
  bordered by k dense columns and their k x k corner, with the identity as
  the mass of the k border unknowns: M = blockdiag(T_M, I_k).  Every P1
  finite element pencil is one (k = 0 for the Galerkin and dislocation
  pencils, k = n_aug for the projector-augmented ones, whose added
  directions are mass-orthonormal and mass-orthogonal to the P1 space).
  It is validated in O(n k) and never densified.  The number of
  eigenvalues in a window is counted exactly by Sylvester inertia: the
  LDL^T pivots of the tridiagonal block plus, with a border, the inertia of
  the k x k Schur complement (Haynsworth additivity; Parlett, The Symmetric
  Eigenvalue Problem).  Products are banded, plus dense border products.
  Shifts are inverted by LAPACK's tridiagonal LU (dgttrf/dgttrs, LAPACK
  Users' Guide), O(n) per shift and per column, with a border eliminated
  through its k x k Schur complement.
- DiagonalLowRank: diag(e) - Y diag(sign) Yᵀ with a real Y of rank k, the
  form of a 1D supercell in its real Bloch fiber eigenbasis.  Haynsworth
  inertia of a k x k matrix counts its eigenvalues below a shift, Woodbury
  inverts the shift in O(nk) per vector, and its count is certified
  against the distance tol to the operator it stands for (ResolutionError
  otherwise).

- MatrixFree: a real symmetric operator known by its action on blocks of
  columns, with a preconditioner for its shifts: the large 2D supercell.
  Shifts are inverted by right-preconditioned block GMRES (gmres, on numpy
  alone), one call per Lanczos block; the preconditioner approximates the
  signed inverse, so it need not be definite.  The calls of one shift
  share a recycled Krylov space (ShiftSolver), checked by each solve's
  true residual and dropped when it fails.  There is no inertia count,
  so a completeness rule (a converged value at or beyond the window's
  half-width) stands in for one.

TridiagonalPencil, DiagonalLowRank and MatrixFree share one block
shift-invert Lanczos (_lanczos): blocks of two start vectors, so an exactly
double value is found directly, two full reorthogonalizations per block,
and the Euclidean inner product throughout (a pencil's mass enters through
its Cholesky factor).  For the two operators with an inertia count the
window is sliced by counts where values hug its ends, each piece is solved
by a Lanczos run at its centre, and the count certifies them: a solve that
cannot return exactly that many eigenvalues raises NotConverged.  Every
Lanczos solve closes with one Rayleigh-Ritz step with the true operator,
which polishes the values and bounds their residuals.

Every solve returns an EigResult: ascending eigenvalues and, on request,
B-orthonormal eigenvectors with a residual bound; Lanczos solves always
carry their residual bound and basis size (lanczos_steps, summed over the
pieces), and the counted ones their inertia count; a dense windowed solve
computes the whole spectrum, so it counts too.  A windowed solve's result
keeps its window and carries its certificate (count and residual bound),
and every windowed route of the package returns it with the route's
diagnostics; interior_mask is the one edge guard.
TridiagonalPencil, DiagonalLowRank and MatrixFree are real symmetric, so
the Lanczos runs in real arithmetic; only a dense SymmetricPencil (a
complex Bloch fiber) is ever complex.

The generalized dense solve and the tridiagonal factorizations call LAPACK
through gapeig.lapack, which loads scipy's compiled LAPACK wrappers on
first use and imports no scipy package: a Bloch sweep and a
DiagonalLowRank or MatrixFree solve need only numpy, so a process that only
locates a gap loads no part of scipy, and one that solves P1 pencils loads
that one extension, not scipy.linalg, whose import (0.25 s, 28 MB) took
longer than its solves.
"""

import numpy as np

from gapeig import lapack
from gapeig.errors import InvalidMatrix, NotConverged, PencilNotDefinite, ResolutionError

SYMMETRY_TOL = 1e-12
# interior_mask: values within this fraction of the window's width from an
# end are band-edge values
DEFAULT_EDGE_GUARD = 0.004
# Lanczos: a Ritz pair counts as converged when its residual estimate is
# below LANCZOS_TOL * |theta|; the basis holds at most MAX_KRYLOV vectors.
LANCZOS_TOL = 1e-13
MAX_KRYLOV = 1000
# start vectors are runs of the Weyl sequence frac(j * WEYL_STEP) - 1/2
# (weyl_vector), the golden ratio's conjugate as step
WEYL_STEP = (np.sqrt(5.0) - 1.0) / 2.0
# windowed solves take the end slices of END_SLICE times the width apart
# when they hold eigenvalues, at most MAX_SLICE_DEPTH levels deep
END_SLICE = 1.0 / 32
MAX_SLICE_DEPTH = 12
# MatrixFree: block GMRES inner solves stop at relative residual GMRES_RTOL
# and fail after GMRES_MAXITER block iterations; the solves of one shift
# share a recycled space (RecycledSpace) of at most GMRES_RECYCLE
# directions, and a recycled solve whose true residual exceeds
# RECYCLE_GUARD times the first solve's (or GMRES_RTOL) is done again
# without it.  The block Lanczos takes blocks of LANCZOS_BLOCK vectors, and
# its Ritz pairs count as converged at residual estimates below
# INEXACT_TOL * |theta| (the inner solves' accuracy bounds how far below
# that the estimates can be trusted)
GMRES_RTOL = 1e-10
GMRES_MAXITER = 200
GMRES_RECYCLE = 32
RECYCLE_GUARD = 10.0
LANCZOS_BLOCK = 2
INEXACT_TOL = 1e-10
# TridiagonalPencil: a shift whose border Schur complement outgrows the
# pencil's entries by more than SCHUR_GROWTH has its solves refined by one
# step, and by more than its square is moved like a singular one (and a
# count there is taken beside it)
SCHUR_GROWTH = 1e4


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
    """max |M_ij - conj(M_ji)| of a square array.

    A real M, which may be a dense supercell matrix of thousands of rows,
    is measured by _max_abs with no |x| temporary; complex pencils (1D Bloch
    fibers) are small.
    """
    if not np.iscomplexobj(M):
        return _max_abs(M - M.T)
    return float(np.max(np.abs(M - M.conj().T)))


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


def _border(border, n_t):
    C, G = (np.asarray(x) for x in border)
    if C.ndim != 2:
        raise InvalidMatrix("A border columns must be a matrix")
    k = C.shape[1]
    C = _real_array(C, "A border columns", (n_t, k))
    G = _real_array(_check_hermitian(G, "A corner"), "A corner", (k, k))
    return C, G


def tridiagonal_cholesky(d, e):
    """Upper Cholesky factor R (RᵀR = T) of the symmetric tridiagonal
    T = (d, e) in LAPACK's upper band storage (dpbtrf), which
    lapack.cho_solve_banded and dtbtrs take: row 1 its diagonal, row 0 its
    superdiagonal after one unused entry.  LinAlgError when T is not
    positive definite."""
    ab = np.zeros((2, len(d)))
    ab[0, 1:] = e
    ab[1] = d
    return lapack.cholesky_banded(ab)


def _bordered_product(d, e, border, X):
    """[[T, C], [Cᵀ, G]] X, for a block of columns X, with T the symmetric
    tridiagonal (d, e) and border (C, G); T X alone when border is None."""
    Xt = X[: len(d)]
    Y = d[:, None] * Xt
    Y[:-1] += e[:, None] * Xt[1:]
    Y[1:] += e[:, None] * Xt[:-1]
    if border is None:
        return Y
    C, G = border
    Xb = X[len(d) :]
    return np.concatenate([Y + C @ Xb, C.T @ Xt + G @ Xb])


def _tridiagonal_solver(d, e):
    """Solver of T X = B, for a block B, with T the real symmetric
    tridiagonal (d, e): LAPACK's LU with partial pivoting (dgttrf, then
    dgttrs per block), O(n) to factor and O(n) per column.

    The f2py dgttrf wrapper takes n >= 3 only, so a smaller T is padded to
    3 rows with a decoupled identity, whose rows solve to zero.
    LinAlgError when T is exactly singular.
    """
    n = len(d)
    pad = max(0, 3 - n)
    if pad:
        d, e = np.concatenate([d, np.ones(pad)]), np.concatenate([e, np.zeros(pad)])
    *lu, info = lapack.dgttrf(e, d, e)
    if info > 0:
        raise np.linalg.LinAlgError("the tridiagonal matrix is exactly singular")

    def solve(B):
        if pad:
            B = np.concatenate([B, np.zeros((pad, B.shape[1]))])
        return lapack.dgttrs(*lu, B)[0][:n]

    return solve


class TridiagonalPencil:
    """Real symmetric pencil (A, M) of tridiagonal matrices, A optionally bordered.

        A = [[T_A, C], [C^T, G]],   M = [[T_M, 0], [0, I_k]]

    T_A, T_M are tridiagonal, given as (diagonal, first offdiagonal); the
    optional border of A is (C, G) with C the n_t x k dense columns and G
    the symmetric k x k corner, and the mass of the k border unknowns is
    the identity (their basis is mass-orthonormal and mass-orthogonal to
    the tridiagonal block's, as the projector-augmented space's is); k = 0
    is the plain tridiagonal pencil.  Construction checks shapes and
    finiteness and that T_M has a banded Cholesky factor R_T (every LDL^T
    pivot is positive); PencilNotDefinite otherwise.  Cost O(n k); nothing
    n x n is formed.

    The pencil is kept as this banded data and nothing else.  apply, mass
    and factor multiply A, M and the upper triangular mass factor
    R = blockdiag(R_T, I_k) (M = RᵀR; factor_t multiplies Rᵀ) into blocks
    of columns, as banded products plus dense border products.
    """

    def __init__(self, A, M, border=None):
        self.a, self.a_off = _tridiagonal(A, "A")
        self.m, self.m_off = _tridiagonal(M, "M")
        n_t = len(self.a)
        if len(self.m) != n_t:
            raise InvalidMatrix("A and M must have the same shape")
        self.border = None
        if border is not None:
            self.border = _border(border, n_t)
            if self.border[0].shape[1] == 0:
                self.border = None
        self.n_t = n_t
        self.k = 0 if self.border is None else self.border[0].shape[1]
        self.n = n_t + self.k
        try:
            chol = tridiagonal_cholesky(self.m, self.m_off)
        except np.linalg.LinAlgError:
            raise PencilNotDefinite("tridiagonal block of M is not positive definite") from None
        # R_T: diagonal r and first superdiagonal r_off
        self._r, self._r_off = chol[1], chol[0, 1:]

    def apply(self, X):
        """A X for a block of columns X."""
        return _bordered_product(self.a, self.a_off, self.border, X)

    def mass(self, X):
        """M X for a block of columns X."""
        Y = _bordered_product(self.m, self.m_off, None, X)
        return np.concatenate([Y, X[self.n_t :]]) if self.k else Y

    def factor(self, X):
        """R X for a block of columns X, with M = RᵀR."""
        Xt = X[: self.n_t]
        Y = self._r[:, None] * Xt
        Y[:-1] += self._r_off[:, None] * Xt[1:]
        return np.concatenate([Y, X[self.n_t :]]) if self.k else Y

    def factor_t(self, X):
        """Rᵀ X for a block of columns X."""
        Xt = X[: self.n_t]
        Y = self._r[:, None] * Xt
        Y[1:] += self._r_off[:, None] * Xt[:-1]
        return np.concatenate([Y, X[self.n_t :]]) if self.k else Y

    def _schur(self, s):
        """The border eliminated at the shift s: (solve, Z, S, growth) with
        solve the tridiagonal solver of T_s = T_A - s T_M, Z = T_s⁻¹ C, the
        k x k Schur complement S = G - s I - Cᵀ Z of A - s M, and growth the
        largest entry of S over the largest of A - s M.  LinAlgError when
        T_s is exactly singular.

        Eliminating the border first loses accuracy when T_s is nearly
        singular (s close to an eigenvalue of the bare block): S then has
        entries of about 1 / dist(s, that eigenvalue), and everything solved
        or counted through it carries absolute errors of about eps times
        them, so relative to the pencil a loss of about eps * growth.
        """
        d, e = self.a - s * self.m, self.a_off - s * self.m_off
        solve = _tridiagonal_solver(d, e)
        C, G = self.border
        Gs = G - s * np.eye(self.k)
        Z = solve(C)
        S = Gs - C.T @ Z
        S = 0.5 * (S + S.T)
        scale = max(float(np.max(np.abs(x), initial=0.0)) for x in (d, e, C, Gs))
        return solve, Z, S, _max_abs(S) / scale

    def shift_inverse(self, sigma):
        """Solver of (A - sigma M) X = Y, for a block Y: LAPACK's tridiagonal
        LU of T_A - sigma T_M (_tridiagonal_solver) and, with a border, its
        elimination through the k x k Schur complement S (_schur), O(n k)
        per column.

        One step of refinement with the true residual squares the relative
        error eps * growth of the elimination, so above a growth of
        SCHUR_GROWTH every solve is refined once, and above SCHUR_GROWTH**2,
        where one step no longer reaches roundoff, the shift is refused as
        if singular.  LinAlgError when the tridiagonal block or S is exactly
        singular, or the shift is refused.
        """
        if not self.k:
            return _tridiagonal_solver(self.a - sigma * self.m, self.a_off - sigma * self.m_off)
        tsolve, Z, S, growth = self._schur(sigma)
        c, P = np.linalg.eigh(S)
        if not np.all(c) or growth > SCHUR_GROWTH**2:
            raise np.linalg.LinAlgError("A - sigma M is singular or nearly so at the border")
        Pc = P / c
        n_t, C = self.n_t, self.border[0]

        def solve(Y):
            Xt = tsolve(Y[:n_t])
            y = Pc @ (P.T @ (Y[n_t:] - C.T @ Xt))
            return np.concatenate([Xt - Z @ y, y])

        if growth <= SCHUR_GROWTH:
            return solve

        def refined(Y):
            X = solve(Y)
            return X + solve(Y - self.apply(X) + sigma * self.mass(X))

        return refined

    def negative_count(self, s, zero_negative=False):
        """Number of negative eigenvalues of A - s M, i.e. of eigenvalues below s.

        Sylvester inertia: the negative LDL^T pivots of the tridiagonal
        block, plus with a border the negative eigenvalues of the Schur
        complement (_schur).  An exactly zero pivot (an eigenvalue at s)
        counts as negative when zero_negative is set, so the call then
        counts eigenvalues <= s.

        Where the tridiagonal block is singular at s to working precision
        (exactly, or with a growth above SCHUR_GROWTH**2), the Schur
        complement's small eigenvalues are lost to roundoff, so a bordered
        count is taken just beside s instead, on the side the zero-pivot
        convention selects, at distances doubling from 2^-40 |s| until the
        growth is back below that bound.
        """
        S = None
        if self.k:
            at, step = s, 2.0**-40 * max(1.0, abs(s))
            for _ in range(64):
                try:
                    S, growth = self._schur(at)[2:]
                    if growth <= SCHUR_GROWTH**2:
                        break
                except np.linalg.LinAlgError:
                    pass
                at = s + step if zero_negative else s - step
                step *= 2.0
            s = at
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
        if S is not None:
            w = np.linalg.eigvalsh(S)
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
        """Solver of (H - sigma) x = y, for a vector or a block of columns
        y, by Woodbury, O(n k) per vector after one eigendecomposition of
        C(sigma); LinAlgError when H - sigma or D is exactly singular."""
        d = self.e - sigma
        if not np.all(d):
            raise np.linalg.LinAlgError("a diagonal entry equals the shift")
        if not self.k:
            return lambda y: (y.T / d).T
        c, P = np.linalg.eigh(self._schur(d))
        if not np.all(c):
            raise np.linalg.LinAlgError("H - sigma is exactly singular")
        Z = (self.Y / d[:, None]) @ P
        Zc = Z / c

        def solve(y):
            return (y.T / d).T + Z @ (Zc.T @ y)

        return solve


class RecycledSpace:
    """A recycled pair (U, C) for the gmres solves of one operator A:
    A U = C with orthonormal columns C (GCRO: de Sturler, J. Comput. Appl.
    Math. 67, 1996; Parks, de Sturler, Mackey, Johnson and Maiti, SIAM J.
    Sci. Comput. 28, 2006).

    U and C are kept as rows, Uᵀ and Cᵀ, of two arrays of cap rows and n
    columns allocated once; the first size rows are the pair.  gmres
    appends each solve's own directions to it until it holds cap.
    """

    def __init__(self, n, cap):
        self.U = np.empty((cap, n))
        self.C = np.empty((cap, n))
        self.size = 0


def gmres(apply, B, precondition, rtol, maxiter, recycle=None):
    """Solutions X of A X = B for a real block B (n, p) of right-hand sides
    by right-preconditioned block GMRES (Saad and Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986), and the number of block iterations it took.

    apply(V) = A V and precondition(V) = M V act on blocks of columns, M an
    approximation of A⁻¹ that need be neither symmetric nor definite.  The
    block Arnoldi process builds an orthonormal basis of the block Krylov
    space of A M and B, two block Gram-Schmidt passes per block, in rows
    that grow by doubling, and never restarts.  Each block iteration solves
    the small least-squares problem min ||E - H Y|| for every column at once
    (H the block Hessenberg matrix, E the coefficients of B) and stops once
    each column's residual there, which estimates its true residual, is at
    most rtol ||b_j||; then X = M (V Y), so only the basis V is stored.  A
    direction the basis loses (an invariant subspace) is replaced by a fresh
    Weyl run, as in _lanczos; a zero column is solved by exactly 0.
    InvalidMatrix when A M gives non-finite values; NotConverged when
    maxiter block iterations do not suffice for every column.

    With a RecycledSpace (U, C), A U = C, the solve starts from
    X0 = U Cᵀ B and runs the same Arnoldi on (I - C Cᵀ) A M from the
    projected residual (I - C Cᵀ) B, its basis and fresh directions kept
    orthogonal to C; with D = Cᵀ A M V, X = X0 + (M V - U D) Y.  On
    convergence the pair takes the leading columns of C' = V Q and
    U' = (M V - U D) R⁻¹ for the QR factorization H = Q R, which satisfy
    A U' = C', until it is full; M V for them is kept in the pair's free
    rows as the Arnoldi forms it.  The residual estimate is the true
    residual only as far as A U = C holds, which the caller checks.
    """
    n, p = B.shape
    target = rtol * np.linalg.norm(B, axis=0)
    k = 0 if recycle is None else recycle.size
    room = 0 if recycle is None else len(recycle.C) - k
    Ur, Cr = (recycle.U[:k], recycle.C[:k]) if k else (np.empty((0, n)),) * 2
    R0 = B
    if k:
        CB = Cr @ B
        R0 = B - Cr.T @ CB
        R0 -= Cr.T @ (Cr @ R0)
    Q0, E = np.linalg.qr(R0)
    # basis rows V grow to twice the rows needed, as _lanczos's Q does, and
    # the block Hessenberg H and D = Cᵀ A M V by doubling
    V = Q0.T
    H = np.zeros((2 * p, 2 * p))
    D = np.zeros((k, 2 * p))
    for it in range(1, maxiter + 1):
        j, m = (it - 1) * p, it * p
        if m + p > len(H):
            H = np.pad(H, (0, len(H)))
            D = np.pad(D, ((0, 0), (0, D.shape[1])))
        MV = precondition(V[j:m].T)
        if j < room:
            recycle.U[k + j : k + min(m, room)] = MV.T[: room - j]
        W = apply(MV).T
        if not np.all(np.isfinite(W)):
            raise InvalidMatrix("block GMRES: the preconditioned operator gave non-finite values")
        scale = np.linalg.norm(W)
        for _ in range(2):
            if k:
                P = W @ Cr.T
                D[:, j:m] += P.T
                W = W - P @ Cr
            P = W @ V[:m].T
            H[:m, j:m] += P.T
            W = W - P @ V[:m]
        Z, s, Vt = np.linalg.svd(W.T, full_matrices=False)
        lost = s <= 1e-12 * scale
        H[m : m + p, j:m] = s[:, None] * Vt
        H[m : m + p][lost] = 0.0
        # the least-squares problem by a full QR of H: its residuals are
        # the last p rows of the rotated right-hand side
        O, R = np.linalg.qr(H[: m + p, :m], mode="complete")
        G = O[:p].T @ E
        if np.all(np.linalg.norm(G[m:], axis=0) <= target):
            Y = np.linalg.solve(R[:m], G[:m])
            X = precondition(V[:m].T @ Y)
            if k:
                X += Ur.T @ (CB - D[:, :m] @ Y)
            if room:
                _extend(recycle, V[:m], Z.T, O[:, :m], R[:m], D[:, :m])
            return X, it
        if k + m + p > n:
            break
        if np.any(lost):
            Z[:, lost] = _orthonormal_rows(
                _weyl_rows(n, m + np.flatnonzero(lost)), np.vstack([Cr, V[:m], Z[:, ~lost].T])
            ).T
        if m + p > len(V):
            V = np.concatenate([V, np.empty((2 * (m + p) - len(V), n))])
        V[m : m + p] = Z.T
    raise NotConverged("block GMRES did not reach rtol %.1e in %d block iterations" % (rtol, it))


def _extend(recycle, V, Vnext, Q, R, D):
    """Append to the pair the leading columns of C' = [V, Vnext] Q and
    U' = (M V - U D) R⁻¹ that fit, with M V already in its free rows of U,
    up to the first pivot of R that is lost to roundoff; V and Vnext are
    the basis rows and the next block's."""
    k = recycle.size
    a = min(R.shape[1], len(recycle.C) - k)
    pivots = np.abs(np.diagonal(R)[:a])
    lost = np.flatnonzero(pivots <= 1e-12 * np.max(pivots))
    if len(lost):
        a = int(lost[0])
    if not a:
        return
    MV = recycle.U[k : k + a]
    if k:
        MV -= D[:, :a].T @ recycle.U[:k]
    recycle.U[k : k + a] = np.linalg.solve(R[:a, :a].T, MV)
    m = len(V)
    recycle.C[k : k + a] = Q[:m, :a].T @ V + Q[m:, :a].T @ Vnext
    recycle.size = k + a


class MatrixFree:
    """Real symmetric operator A of size n known by its action alone, with
    a preconditioner for its shifts.

    matvec(X) = A X for a real block of columns X (n, p), and
    precondition(sigma) returns a function applying an approximation of
    (A - sigma)⁻¹ to such a block; it raises LinAlgError at a shift it
    cannot invert, which _lanczos then moves.  Shifts are inverted by
    right-preconditioned block GMRES (gmres), to GMRES_RTOL, and the solves
    of one shift share a recycled space (ShiftSolver); inner_solves counts
    the right-hand sides solved and inner_iterations the operator
    applications inside GMRES (block iterations times columns, a recycled
    attempt and its plain re-solve both counted), and a solve that fails
    raises NotConverged.  With no inertia count, solve_window finds its
    window by the shift-invert Lanczos (_lanczos) with the completeness
    rule that stands in for one.
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
        """Solver of (A - sigma) X = Y for a block Y: a ShiftSolver."""
        return ShiftSolver(self, sigma)


class ShiftSolver:
    """(A - sigma) X = Y for the blocks Y of one MatrixFree op and shift, by
    block GMRES right-preconditioned by op.precondition(sigma), all solves
    sharing one RecycledSpace of at most GMRES_RECYCLE directions
    (recycled; None once dropped).

    The first solve is plain and starts the pair.  The pair's relation
    (A - sigma) U = C is only as accurate as the solves it came from, and
    with a nearly singular preconditioner (a shift close to an eigenvalue
    of its periodic part) not even that, so every solve's true residual is
    checked with one more block product: a recycled solve whose relative
    residual exceeds RECYCLE_GUARD times the first solve's, or GMRES_RTOL
    if larger, or that does not converge, drops the pair for this shift
    and is solved again without it.
    """

    def __init__(self, op, sigma):
        self.op = op
        self.sigma = sigma
        self.precondition = op.precondition(sigma)
        self.recycled = RecycledSpace(op.n, min(GMRES_RECYCLE, op.n))
        self.first = None

    def _shifted(self, V):
        self.op.inner_iterations += V.shape[1]
        return self.op.matvec(V) - self.sigma * V

    def _gmres(self, Y, recycle):
        return gmres(self._shifted, Y, self.precondition, GMRES_RTOL, GMRES_MAXITER, recycle)[0]

    def _residual(self, X, Y):
        """max_j ||(A - sigma) x_j - y_j|| / ||y_j|| over the nonzero y_j."""
        r = np.linalg.norm(self.op.matvec(X) - self.sigma * X - Y, axis=0)
        b = np.linalg.norm(Y, axis=0)
        return float(np.max(r / np.where(b > 0.0, b, 1.0), initial=0.0))

    def __call__(self, Y):
        self.op.inner_solves += Y.shape[1]
        if self.recycled is None:
            return self._gmres(Y, None)
        if self.first is None:
            X = self._gmres(Y, self.recycled)
            self.first = self._residual(X, Y)
            return X
        try:
            X = self._gmres(Y, self.recycled)
            if self._residual(X, Y) <= RECYCLE_GUARD * max(self.first, GMRES_RTOL):
                return X
        except NotConverged:
            pass
        self.recycled = None
        return self._gmres(Y, None)


class EigResult:
    """Eigenvalues in ascending order plus optional eigenvectors and diagnostics.

    residual_bound is max_j ||A v_j - lambda_j B v_j||_2 and orthonormality
    is ||V^H B V - I||_max; dense value-only solves leave both None.  count
    is the number of eigenvalues in the window: the inertia count that
    certifies a structured solve, or the values a dense windowed solve
    kept of the whole spectrum (None for a MatrixFree solve, which has no
    count, and for solves without a window).  count and residual_bound are
    the solve's certificate, which a route may widen (by its own tolerance)
    but does not copy.  lanczos_steps is the Lanczos basis vectors a
    structured solve built over all window slices (None for dense solves).
    window is the open interval (lo, hi) of a solve_window call, which
    holds every value (None for other solves); diagnostics is what the
    routes add.
    """

    def __init__(self, eigenvalues, eigenvectors=None, residual_bound=None, orthonormality=None,
                 count=None, lanczos_steps=None):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = eigenvectors
        self.residual_bound = residual_bound
        self.orthonormality = orthonormality
        self.count = count
        self.lanczos_steps = lanczos_steps
        self.window = None
        self.diagnostics = {}

    def __len__(self):
        return len(self.eigenvalues)

    def interior(self):
        """The eigenvalues away from both window ends (interior_mask)."""
        if self.window is None:
            raise ValueError("interior() needs a windowed result; this one has no window")
        return self.eigenvalues[interior_mask(self.eigenvalues, self.window)]


def window_pair(window):
    """(alpha, beta) as floats from a bloch.GapWindow or an (alpha, beta) pair."""
    if hasattr(window, "alpha"):
        return float(window.alpha), float(window.beta)
    a, b = window
    return float(a), float(b)


def interior_mask(values, window, guard_frac=DEFAULT_EDGE_GUARD):
    """Which values lie further than guard_frac times the width of the
    window (alpha, beta) from both of its ends.  Values hugging an end sit
    at the numerical band edge and cannot be attributed to a defect at
    fixed resolution; counting only the others makes gap-eigenvalue counts
    resolution-stable."""
    alpha, beta = window
    guard = guard_frac * (beta - alpha)
    values = np.asarray(values)
    return (values > alpha + guard) & (values < beta - guard)


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

    The standard problem takes numpy's LAPACK and the generalized one
    gapeig.lapack's *gvd, each over the full spectrum, which by_value then
    windows; a generalized by_index goes to the index-subset *gvx driver.
    """
    A, B = pencil.A, pencil.B
    keep = slice(None)
    if B is not None:
        w, V = lapack.eigh_generalized(A, B, with_vectors, by_index)
    else:
        w, V = np.linalg.eigh(A) if with_vectors else (np.linalg.eigvalsh(A), None)
        if by_index is not None:
            keep = slice(by_index[0], by_index[1] + 1)
    if by_value is not None:
        keep = (w > by_value[0]) & (w < by_value[1])
    return _finish(pencil, w[keep], None if V is None else V[:, keep])


def solve_pencil(pencil, with_vectors=True):
    """Full eigendecomposition of a dense pencil."""
    return _solve_dense(pencil, with_vectors)


def _orthonormal_rows(X, Q):
    """The rows of X made orthonormal and orthogonal to the orthonormal rows
    of Q: two projections, then a QR."""
    for _ in range(2):
        X = X - (X @ Q.T) @ Q
    return np.linalg.qr(X.T)[0].T


def _weyl_rows(n, runs):
    return np.array([weyl_vector(n, run * n) for run in runs])


def _lanczos(op, lo, hi, count=None):
    """Block shift-invert Lanczos at the centre sigma of (lo, hi): Ritz
    vectors of the eigenvalues in the window, as columns, and the basis size.

    The Lanczos runs in the Euclidean inner product on the symmetric
    operator K = R (A - sigma M)⁻¹ Rᵀ, where M = RᵀR for a pencil with a
    mass (R from op.factor) and R = M = I otherwise.  K has the
    eigenvalues theta = 1 / (lambda - sigma), with eigenvectors R x.  An
    exactly singular shift is moved off the centre.

    The basis grows by blocks of LANCZOS_BLOCK vectors (the last one cut to
    fit at most MAX_KRYLOV and n vectors) from as many runs of the Weyl
    sequence, so the result is deterministic, with two full
    reorthogonalizations per block; a block of two finds a double
    eigenvalue, which a single start vector sees as one.  The projected
    operator is block tridiagonal; where the Krylov space turns invariant
    the basis goes on from fresh Weyl runs.

    With count (an operator with an inertia count), the run stops once
    count Ritz values inside the window have converged to LANCZOS_TOL and
    returns the count nearest sigma, each Ritz vector z mapped to the op's
    as (A - sigma M)⁻¹ Rᵀ z / theta = R⁻¹ K z / theta: that is R⁻¹ z up to
    the Ritz residual, improved by one more shift-invert step, and needs no
    solve with R.  Without (MatrixFree), the window is complete once the
    Ritz values nearest sigma have converged to INEXACT_TOL up to and
    including the first one at or beyond the window's half-width from
    sigma; those before it are the window's values.  NotConverged when the
    basis fills first.
    """
    n = op.n
    sigma = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    try:
        inverse = op.shift_inverse(sigma)
    except np.linalg.LinAlgError:
        # sigma is an eigenvalue (exactly singular shift), or a pencil's
        # border elimination refused it: move it off
        sigma += 1e-6 * (hi - lo)
        inverse = op.shift_inverse(sigma)

    def solve(Z):
        return inverse(Z) if op.mass is None else op.factor(inverse(op.factor_t(Z)))

    p = min(LANCZOS_BLOCK, n)
    m_max = min(n, MAX_KRYLOV)
    # the basis rows Q and the projected operator T grow by doubling
    Q = np.empty((p, n))
    Q[:] = _orthonormal_rows(_weyl_rows(n, range(p)), Q[:0])
    T = np.zeros((p, p))
    j, m = 0, p
    while True:
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
        # Ritz pairs in order of nearness to sigma; B S[j:m] gives their residuals
        near = np.argsort(-np.abs(theta), kind="stable")
        if count is None:
            beyond = np.flatnonzero(np.abs(lam[near] - sigma) >= half)
            if len(beyond):
                need = near[: beyond[0] + 1]
                resid = np.linalg.norm(B @ S[j:m, need], axis=0)
                if np.all(resid <= INEXACT_TOL * np.abs(theta[need])):
                    return Q[:m].T @ S[:, need[:-1]], m
        else:
            inside = near[(lam[near] > lo) & (lam[near] < hi)]
            resid = np.linalg.norm(B @ S[j:m, inside], axis=0)
            good = inside[resid <= LANCZOS_TOL * np.abs(theta[inside])]
            if len(good) >= count:
                pick = good[:count]
                Z = Q[:m].T @ S[:, pick]
                return inverse(Z if op.mass is None else op.factor_t(Z)) / theta[pick], m
        if m == m_max:
            break
        b = min(p, m_max - m)
        U, B = U[:, :b], B[:b]
        lost = s[:b] <= 1e-12 * np.max(np.abs(theta))
        if np.any(lost):
            # an invariant subspace: continue from fresh directions
            B[lost] = 0.0
            U[:, lost] = _orthonormal_rows(
                _weyl_rows(n, m + np.flatnonzero(lost)), np.vstack([Q[:m], U[:, ~lost].T])
            ).T
        if m + b > len(T):
            T = np.pad(T, (0, min(2 * (m + b), m_max) - len(T)))
            Q = np.concatenate([Q, np.empty((len(T) - len(Q), n))])
        Q[m : m + b] = U.T
        T[m : m + b, j:m] = B
        T[j:m, m : m + b] = B.T
        j, m = m, m + b
    missing = ("a converged Ritz value at the half-width: the window's completeness cannot be "
               "certified" if count is None else "the %d certified eigenvalues" % count)
    raise NotConverged("block shift-invert Lanczos filled its basis of %d vectors in "
                       "(%.17g, %.17g) without %s" % (m_max, lo, hi, missing))


def _window_vectors(op, lo, hi, count):
    """Ritz vectors of the count eigenvalues in (lo, hi), as columns, and
    the Lanczos basis vectors spent on them.

    A value hugging a window end converges slowly from the window centre,
    next to the values just outside that end.  So the window is sliced by
    counts first: when op.negative_count finds values in an end slice of
    END_SLICE times the width, that slice and the rest are solved apart,
    each by the same rule, down to MAX_SLICE_DEPTH levels.  Every piece
    is then solved by one Lanczos run at its centre.
    """
    if not count:
        return np.zeros((op.n, 0)), 0
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
        blocks.append(X)
    return np.column_stack(blocks), steps


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
    MX = X if op.mass is None else op.mass(X)
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


def _solve_lanczos(op, lo, hi, count, with_vectors):
    """Eigenpairs of a TridiagonalPencil, DiagonalLowRank or MatrixFree op
    in (lo, hi): Lanczos Ritz vectors (sliced by count when the op has an
    inertia count, count None otherwise), then Rayleigh-Ritz with the true
    operator, whose residual bound the result carries."""
    if count is None:
        X, steps = _lanczos(op, lo, hi)
    else:
        X, steps = _window_vectors(op, lo, hi, count)
    if X.shape[1] == 0:
        V = np.zeros((op.n, 0)) if with_vectors else None
        return EigResult(np.zeros(0), V, 0.0, 0.0, count, steps)
    w, V, resid, ortho = _rayleigh_ritz(op, X, lo, hi)
    return EigResult(w, V if with_vectors else None, resid, ortho, count, steps)


def solve_window(pencil, lo, hi, with_vectors=True):
    """Eigenpairs with eigenvalues inside the open interval (lo, hi), the
    result's window."""
    if not (lo < hi):
        raise ValueError("window requires lo < hi")
    if isinstance(pencil, SymmetricPencil):
        res = _solve_dense(pencil, with_vectors, by_value=(lo, hi))
        res.count = len(res)  # kept of the whole spectrum LAPACK computed
    else:
        count = None if isinstance(pencil, MatrixFree) else pencil.count(lo, hi)
        res = _solve_lanczos(pencil, lo, hi, count, with_vectors)
    res.window = (float(lo), float(hi))
    return res


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
        res = _solve_lanczos(pencil, lo, hi, count, True)
        res.eigenvalues = res.eigenvalues[:k]
        res.eigenvectors = res.eigenvectors[:, :k] if with_vectors else None
        return res
    return _solve_dense(pencil, with_vectors, by_index=(0, k - 1))
