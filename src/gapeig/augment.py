"""Projector-augmented P1 spaces: pollution-free gap eigenvalues on truncated domains.

Spectral pollution of the truncated Galerkin method disappears when the
trial space is compatible with the band projector P of the periodic
background: the space must split into a part inside ran(P) and a part
inside ran(1-P).  This module builds a discrete substitute for P from
Bloch fibers of the periodic FEM problem on a window of exactly M_q
periods, and augments the truncated P1 space with the projected
directions.  The resulting pencil has the same gap eigenvalues as the
supercell reference, with no boundary-spurious values.  The substitute is
held as its fibers (ProjectorKernel), never as dense window-length
columns: callers unfold only the node rows and the few directions they
need.

The augmented basis is [phi | (1 - Pi_h) u]: the domain's hat functions,
and the projected directions less their mass-orthogonal projection Pi_h
onto span(phi), made mass-orthonormal.  That changes the basis, not the
space or its eigenvalues, and makes the augmented mass exactly
blockdiag(M_dom, I), well conditioned however close a u lies to span(phi).

The window spans M_q periods because the M_q midpoint quasimomenta make the
unfolded Bloch frame exactly mass-orthogonal there (the cross terms are full
geometric sums of unit phases), with an antiperiodic seam since every
midpoint momentum satisfies e^{i q M_q b} = -1.  Exact orthogonality gives a
kernel that is symmetric, real, idempotent and of trace M_q*J by
construction, up to roundoff.

Every form here comes from fem1d's one P1 kernel: the window circle uses
its antiperiodic seam -1, the periodic fiber (fem_fiber) its quasiperiodic
seam e^{iqb}, and the domain blocks are the circle forms restricted to the
Dirichlet nodes.  augmented_spectrum returns its solve's eigcore.EigResult,
eigenvectors included, as every P1 route does, with no use of supercell.
AugmentedSpace.node_values turns its eigenvectors into values at the domain
mesh's nodes, which fem1d.localize measures as it measures Galerkin modes.

a2_estimate(V, mesh, projector) measures a FEM projector against the
planewave one of the same J, n_c and M_q: the H1 norm of their difference
on the domain's P1 functions.  The difference has rank at most 2*M_q*J, so
the norm is computed exactly from one eigenproblem of that size.
"""

import functools

import numpy as np

from gapeig import bloch, eigcore, fem1d, lapack
from gapeig.errors import BasisTooLarge, NoGap, QGridAsymmetric, WindowTooSmall

# relative tolerance of the kernel's edge decay and of augmented_space's SVD
DEFAULT_TAU = 1e-10
# planewave cutoff of the reference fibers (source "planewave"): 2*M_pw + 1 modes
DEFAULT_M_PW = 32
# augmented_space keeps a projected direction when its residual-Gram
# eigenvalue (its squared mass distance from the P1 space) exceeds SIGMA_TOL
SIGMA_TOL = 1e-8
# build_projector's budgets (BasisTooLarge before any fiber), from
# tracemalloc peaks: a dense fiber pencil costs 70 B * n_c^2 and a whole
# augment run (0.2 kB + 27 B * M_q * J) per window node M_q*n_c, so about
# 0.6 GB at the fiber cap, 10 MB at the window-node cap and 0.7 GB at the
# cap on window nodes times the projector's rank M_q*J
MAX_FIBER_NODES = 3000
MAX_WINDOW_NODES = 50000
MAX_WINDOW_RANK = 25_000_000
# the fewest periods augmented_space leaves between the domain and each edge
# of the projector window (WindowTooSmall below it)
WINDOW_MARGIN = 1.0


def _cell_integrals(V, n_c):
    """fem1d.element_integrals of V over the n_c elements of one period."""
    h = V.lattice.b / n_c
    a = np.arange(n_c) * h
    return fem1d.element_integrals(a, a + h, h, V)


def fem_fiber(V, q, n_c, J, integrals=None):
    """The lowest J bands of the periodic FEM fiber at q: (eigenvalues, vectors).

    integrals are V's _cell_integrals, which do not depend on q: a sweep
    over quasimomenta computes them once and passes them in (None computes
    them here).  Eigenvectors are mass-orthonormal, so each band function
    carries unit mass per period.  The fiber pencil is Hermitian with a
    positive definite mass by construction, so it goes straight to LAPACK's
    index-subset driver (lapack.eigh_generalized).
    """
    b = V.lattice.b
    if integrals is None:
        integrals = _cell_integrals(V, n_c)
    forms = fem1d.p1_forms(n_c, b / n_c, np.exp(1j * q * b), integrals)
    A, M = (fem1d.dense_form(f) for f in forms)
    return lapack.eigh_generalized(A, M, True, by_index=(0, J - 1))


def _planewave_cell_vectors(V, q, n_c, J):
    """Exact Bloch band functions at q (DEFAULT_M_PW) sampled on the n_c period nodes."""
    lat = V.lattice
    res = bloch.fiber_bands(V, np.atleast_1d(q), DEFAULT_M_PW, J, with_vectors=True)
    offs = bloch.fiber_offsets(1, DEFAULT_M_PW)[:, 0]
    x = np.arange(n_c) * (lat.b / n_c)
    # psi(x) = e^{iqx} sum_G c_G e^{i 2 pi m x / b} / sqrt(b)
    phases = np.exp(1j * np.outer(x, q + lat.reciprocal * offs)) / np.sqrt(lat.b)
    return res.eigenvalues, phases @ res.eigenvectors


def _fiber_mass(lattice, n_c, qs, F):
    """M_fiber(q) F[i] for each midpoint q: the P1 mass of one period, seam e^{iqb}."""
    b = lattice.b
    return np.stack([
        fem1d.apply_form(fem1d.p1_forms(n_c, b / n_c, np.exp(1j * q * b))[1], f)
        for q, f in zip(qs, F)
    ])


class ProjectorKernel:
    """Rank M_q*J band projector on the M_q-period window circle, held as its Bloch fibers.

    The projector is translation invariant, so it is stored as what it is
    made of: F (M_q/2 x n_c x J, one slice per q > 0 of the midpoint grid),
    band vectors mass-orthonormal per period, and MF = M_fiber(q) F.  On cell
    c of the window the fibers unfold to sqrt(2/M_q) e^{iqb(c - M_q/2)} F[q],
    whose real and imaginary parts are the mass-orthonormal columns of U;
    MF unfolds the same way to MU = M U exactly, because every midpoint q has
    e^{i q M_q b} = -1, the window circle's antiperiodic seam.  In this
    factored form K = MU MU^T and P = U (MU)^T is idempotent by construction.

    No array of window length is stored.  rows and mass_rows unfold the rows
    of U and MU for a node range, coefficients folds U^T X and combine
    unfolds U Y, so P x = combine(coefficients(apply_mass(x))).
    diagnostics report the measured orthonormality defect, trace, decay and
    translation invariance; dense() materializes K for small windows.
    """

    # periods unfolded at a time when the Gram matrices are measured
    GRAM_CELLS = 8

    def __init__(self, lattice, J, n_c, M_q, F, band_window):
        self.lattice = lattice
        self.J = J
        self.n_c = n_c
        self.M_q = M_q
        self.n_win = M_q * n_c
        self.half_index = self.n_win // 2
        self.h = lattice.b / n_c
        self.band_window = band_window
        self.qs = bloch.midpoint_grid(lattice, M_q)[M_q // 2:]
        # unfolding phase of cell c and the i-th q, with the column scale
        cells = lattice.b * (np.arange(M_q) - M_q // 2)
        self.phases = np.sqrt(2.0 / M_q) * np.exp(1j * np.outer(cells, self.qs))
        self.F = F
        self.MF = _fiber_mass(lattice, n_c, self.qs, F)
        self.diagnostics = {}

    def forms(self, pot=None):
        """P1 forms (A, M) on the window circle, A = stiffness + pot.

        Node i sits at (i - half_index)*h; the last element wraps back to
        node 0 through the antiperiodic seam.
        """
        integrals = None
        if pot is not None:
            a = (np.arange(self.n_win) - self.half_index) * self.h
            integrals = fem1d.element_integrals(a, a + self.h, self.h, pot)
        return fem1d.p1_forms(self.n_win, self.h, -1.0, integrals)

    @property
    def mass_form(self):
        return self.forms()[1]

    def apply_mass(self, X):
        return fem1d.apply_form(self.mass_form, X)

    def _unfold(self, G, lo, hi):
        n_c = self.n_c
        Z = np.empty((hi - lo, len(self.qs), G.shape[2]), complex)
        Gt = G.transpose(1, 0, 2)
        for c in range(lo // n_c, -(-hi // n_c)):
            a, b = max(lo, c * n_c), min(hi, (c + 1) * n_c)
            np.multiply(Gt[a - c * n_c:b - c * n_c], self.phases[c, :, None], out=Z[a - lo:b - lo])
        # columns (q, j, real/imaginary part), in that order
        return Z.view(float).reshape(hi - lo, -1)

    def rows(self, lo, hi):
        """Rows lo..hi-1 of U."""
        return self._unfold(self.F, lo, hi)

    def mass_rows(self, lo, hi):
        """Rows lo..hi-1 of MU."""
        return self._unfold(self.MF, lo, hi)

    def coefficients(self, X):
        """U^T X for a real window vector or the columns of X."""
        if X.ndim == 1:
            return self.coefficients(X[:, None])[:, 0]
        m = X.shape[1]
        # fold the cells onto each q, then contract each fiber's nodes
        T = (self.phases.T @ X.reshape(self.M_q, -1)).reshape(len(self.qs), self.n_c, m)
        S = np.matmul(self.F.transpose(0, 2, 1), T)
        return np.stack([S.real, S.imag], axis=2).reshape(-1, m)

    def combine(self, Y):
        """U Y for coefficients Y (M_q*J rows, or a vector)."""
        if Y.ndim == 1:
            return self.combine(Y[:, None])[:, 0]
        m = Y.shape[1]
        Yq = Y.reshape(len(self.qs), self.F.shape[2], 2, m)
        G = np.matmul(self.F, Yq[:, :, 0] - 1j * Yq[:, :, 1])
        return (self.phases @ G.reshape(len(self.qs), -1)).real.reshape(self.n_win, m)

    @functools.cached_property
    def grams(self):
        """(U^T MU, U^T U, (MU)^T MU), measured GRAM_CELLS periods of rows at a time."""
        r = 2 * self.F.shape[0] * self.F.shape[2]
        G, UU, MM = (np.zeros((r, r)) for _ in range(3))
        step = self.GRAM_CELLS * self.n_c
        for lo in range(0, self.n_win, step):
            hi = min(lo + step, self.n_win)
            R, MR = self.rows(lo, hi), self.mass_rows(lo, hi)
            G += R.T @ MR
            UU += R.T @ R
            MM += MR.T @ MR
        return G, UU, MM

    def gram_defect(self):
        G = self.grams[0]
        return float(np.max(np.abs(G - np.eye(len(G))))), float(np.trace(G))

    def idempotency_residual(self):
        """||P^2 - P||_F from r x r Gram matrices only (r = M_q * J).

        P^2 - P = U E U^T M with E = U^T M U - I, so
        ||P^2 - P||_F^2 = tr(E (U^T U) E (MU)^T (MU)); no n_win x n_win
        matrix is formed.
        """
        G, UU, MM = self.grams
        E = G - np.eye(len(G))
        sq = np.trace(E @ UU @ E @ MM)
        return float(np.sqrt(max(sq, 0.0)))

    def dense(self):
        MU = self.mass_rows(0, self.n_win)
        return MU @ MU.T

    def _cell(self, c):
        return self.mass_rows(c * self.n_c, (c + 1) * self.n_c)

    def _block(self, c1, c2):
        return self._cell(c1) @ self._cell(c2).T

    def decay_profile(self):
        """Max |K| entry per circular cell separation, relative to the overall max."""
        prof = np.zeros(self.M_q // 2 + 1)
        first = self._cell(0)
        for c2 in range(self.M_q):
            sep = min(c2, self.M_q - c2)
            prof[sep] = max(prof[sep], np.max(np.abs(first @ self._cell(c2).T)))
        return prof / prof[0]

    def translation_defect(self):
        """Max difference between kernel blocks related by one lattice translation."""
        worst = 0.0
        mid = self.M_q // 2
        for c1, c2 in ((mid - 4, mid - 4), (mid - 4, mid - 1), (mid - 6, mid - 3)):
            d = self._block(c1, c2) - self._block(c1 + 1, c2 + 1)
            worst = max(worst, float(np.max(np.abs(d))))
        return worst


def build_projector(V, J=1, n_c=100, M_q=64, source="fem"):
    """Build the discrete band projector for the lowest J bands of -d2/dx2 + V.

    source "fem" uses the periodic P1 fiber at the same resolution n_c as the
    computational mesh; source "planewave" samples the near-exact planewave
    Bloch functions (DEFAULT_M_PW) on the same nodes (used as the reference
    projector in a2_estimate).  M_q must be even so the quasimomentum grid
    is symmetric under q -> -q; the two members of each +-q pair enter
    through the real and imaginary parts of the unfolded Bloch function, so
    only the fibers at q > 0 are solved and kept.  BasisTooLarge, before
    any fiber, above MAX_FIBER_NODES, MAX_WINDOW_NODES or MAX_WINDOW_RANK
    (window nodes times M_q*J).
    """
    lat = V.lattice
    if lat.d != 1:
        raise ValueError("projector augmentation is 1D")
    if M_q % 2 or M_q < 4:
        raise QGridAsymmetric("M_q must be an even integer >= 4 for a +-q symmetric grid")
    if source not in ("fem", "planewave"):
        raise ValueError("source must be 'fem' or 'planewave'")
    nodes = M_q * n_c
    if n_c > MAX_FIBER_NODES or nodes > MAX_WINDOW_NODES or nodes * M_q * J > MAX_WINDOW_RANK:
        raise BasisTooLarge("n_c = %d, M_q * n_c = %d nodes and nodes * M_q * J = %d exceed the "
                            "budgets of %d, %d and %d" % (n_c, nodes, nodes * M_q * J,
                                                          MAX_FIBER_NODES, MAX_WINDOW_NODES,
                                                          MAX_WINDOW_RANK))
    qs = bloch.midpoint_grid(lat, M_q)[M_q // 2:]
    F = np.empty((len(qs), n_c, J), complex)
    lo_next = np.inf
    hi_band = -np.inf
    integrals = _cell_integrals(V, n_c) if source == "fem" else None
    for i, q in enumerate(qs):
        if source == "fem":
            ev, vecs = fem_fiber(V, q, n_c, J + 1, integrals)
        else:
            ev, vecs = _planewave_cell_vectors(V, q, n_c, J + 1)
        if ev[J] - ev[J - 1] <= bloch.DEGENERACY_TOL:
            raise NoGap("bands %d and %d degenerate at q=%.6f" % (J, J + 1, q))
        hi_band = max(hi_band, float(ev[J - 1]))
        lo_next = min(lo_next, float(ev[J]))
        F[i] = vecs[:, :J]
    if source == "planewave":
        # sampled exact Bloch functions are not exactly unit mass per period;
        # fix the norms (on the midpoint grid this is the unfolded columns'
        # window mass: the cross term of q with -q is a vanishing geometric sum)
        norms = np.einsum("qkj,qkj->qj", F.conj(), _fiber_mass(lat, n_c, qs, F)).real
        F /= np.sqrt(norms)[:, None, :]
    P = ProjectorKernel(lat, J, n_c, M_q, F, (hi_band, lo_next))
    defect, trace = P.gram_defect()
    prof = P.decay_profile()
    far = prof[6:] if len(prof) > 6 else prof[-1:]
    edge = float(prof[-1])
    if edge > 100.0 * DEFAULT_TAU:
        raise WindowTooSmall(
            "kernel has not decayed across the window: relative edge entry %.3e" % edge
        )
    P.diagnostics = {
        "source": source,
        "orthonormality_defect": defect,
        "idempotency_residual": P.idempotency_residual(),
        "trace": trace,
        "trace_per_cell": trace / M_q,
        "decay_at_6_periods": float(np.max(far)),
        "edge_entry": edge,
        "translation_defect": P.translation_defect(),
        "band_window": (hi_band, lo_next),
    }
    return P


class AugmentedSpace:
    """Truncated P1 space plus the projected Bloch directions it lacks.

    Basis [phi_i | u_k]: the Dirichlet hat functions of the domain mesh and
    the mass-orthonormal columns u_k = (1 - Pi_h) v_k of U_keep, with the
    v_k spanning the part of ran(P) reachable from the domain that span(phi)
    lacks and Pi_h the mass-orthogonal projection onto span(phi).  The space
    splits along P as span{(1-P)phi_i} + span{P phi_i}; the mass in this
    basis is exactly blockdiag(M_dom, I).
    """

    def __init__(self, mesh, projector, idx, U_keep, diagnostics):
        self.mesh = mesh
        self.projector = projector
        self.idx = idx
        self.U_keep = U_keep
        self.diagnostics = diagnostics

    @property
    def n_aug(self):
        return self.U_keep.shape[1]

    def node_values(self, coeffs):
        """Values at every domain mesh node, end nodes included, of the
        functions with augmented-basis coefficients coeffs (a vector or its
        columns): the fem1d.Mesh1D convention of the mass functions.  The
        hat part fills the interior nodes; the u_k do not vanish at the ends.
        """
        nf = len(self.idx)
        half = self.projector.half_index
        values = self.U_keep[self.mesh.i_lo + half:self.mesh.i_hi + half + 1] @ coeffs[nf:]
        values[1:-1] += coeffs[:nf]
        return values


def window_margins(mesh, M_q):
    """Periods between the mesh's two ends and the edges of the M_q-period window."""
    half = M_q * mesh.n_c // 2
    return (mesh.i_lo + half) / mesh.n_c, (half - mesh.i_hi) / mesh.n_c


def augmented_space(projector, mesh):
    """Select the projected directions that augment the truncated space.

    Couples the projector to the domain through C = U^T M restricted to the
    domain nodes, compresses with an SVD at relative tolerance DEFAULT_TAU, then
    drops directions already representable in the P1 space: eigenvectors of
    the residual Gram I - Y^T M_dom^{-1} Y at or below SIGMA_TOL carry no
    new content.  Each kept v becomes v - phi M_dom^{-1} (M v)[idx], applied
    twice (the second pass removes what rounding leaves when that is small),
    made mass-orthonormal by the Cholesky factor of the kept Gram.
    Diagnostics report cross_mass, the (A1) cross term of the v, and
    gram_min, the smallest kept residual-Gram eigenvalue (None if none).
    WindowTooSmall when the domain comes within WINDOW_MARGIN periods of
    either window edge.
    """
    if not isinstance(mesh, fem1d.Mesh1D):
        raise TypeError("mesh must be a Mesh1D")
    if mesh.n_c != projector.n_c:
        raise ValueError("mesh and projector must share n_c")
    margin_lo, margin_hi = window_margins(mesh, projector.M_q)
    if min(margin_lo, margin_hi) < WINDOW_MARGIN:
        raise WindowTooSmall(
            "window of %d periods leaves margins (%.2f, %.2f) around the domain; "
            "need at least %.2f periods (increase M_q)"
            % (projector.M_q, margin_lo, margin_hi, WINDOW_MARGIN)
        )
    idx = np.arange(mesh.i_lo + 1, mesh.i_hi) + projector.half_index
    # C^T = (MU)[idx], the domain's mass rows of the projector
    MU_dom = projector.mass_rows(idx[0], idx[-1] + 1)
    Uq, s, _ = np.linalg.svd(MU_dom.T, full_matrices=False)
    if s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > DEFAULT_TAU * s[0]))
    Q = Uq[:, :rank]
    if rank == 0:
        diag = {"rank_coupled": 0, "rank_kept": 0, "cross_mass": 0.0, "gram_min": None,
                "margins": (margin_lo, margin_hi)}
        return AugmentedSpace(mesh, projector, idx, np.zeros((projector.n_win, 0)), diag)
    # residual of each coupled direction U Q against the P1 space, in the
    # mass inner product: R = I - Y^T M_dom^{-1} Y with Y = (MU)[idx] Q the
    # domain mass moments
    Y = MU_dom @ Q
    # the mass form on the domain nodes (Dirichlet), its banded Cholesky factor
    d, o, _ = projector.mass_form
    chol = eigcore.tridiagonal_cholesky(d[idx], o[idx[:-1]])
    Z = lapack.cho_solve_banded(chol, Y)
    R = np.eye(rank) - Y.T @ Z
    R = 0.5 * (R + R.T)
    lam, E = np.linalg.eigh(R)
    keep = lam > SIGMA_TOL
    # only the kept directions are unfolded over the window
    V_keep = projector.combine(Q @ E[:, keep])
    # (A1) cross block: the v_k are in ran(P), the (1-P)phi_i are mass
    # orthogonal to them; report the measured value
    MVk = projector.apply_mass(V_keep)
    cross = float(np.max(np.abs(MVk[idx] - MU_dom @ projector.coefficients(MVk)), initial=0.0))
    # (1 - Pi_h) v twice; the first pass reuses Z, the moments' solve
    U_keep = V_keep
    U_keep[idx] -= Z @ E[:, keep]
    U_keep[idx] -= lapack.cho_solve_banded(chol, projector.apply_mass(U_keep)[idx])
    G = U_keep.T @ projector.apply_mass(U_keep)
    U_keep = np.linalg.solve(np.linalg.cholesky(0.5 * (G + G.T)), U_keep.T).T
    diag = {
        "rank_coupled": rank,
        "rank_kept": int(np.sum(keep)),
        "residual_range": (float(lam[0]), float(lam[-1])),
        "gram_min": float(lam[keep][0]) if np.any(keep) else None,
        "cross_mass": cross,
        "margins": (margin_lo, margin_hi),
    }
    return AugmentedSpace(mesh, projector, idx, U_keep, diag)


def augmented_spectrum(V, W, aug, window):
    """Gap eigenvalues of H on the augmented space.

    The forms live on the projector window circle (the W tail beyond the
    window is negligible by construction).  The pencil is the plain
    Dirichlet FEM tridiagonal, A bordered by its coupling to the retained
    directions and their Gram block and M by nothing (the directions'
    mass is the identity): an eigcore.TridiagonalPencil with n_aug columns.
    Returns its windowed solve, an eigcore.EigResult with the eigenvectors
    in the augmented basis, with the route's diagnostics.
    """
    P = aug.projector
    idx = aug.idx
    Uk = aug.U_keep
    formA, (dM, oM, _) = P.forms(lambda x: V(x) + W(x))
    dA, oA, _ = formA
    AU = fem1d.apply_form(formA, Uk)
    G = Uk.T @ AU
    pencil = eigcore.TridiagonalPencil(
        (dA[idx], oA[idx[:-1]]), (dM[idx], oM[idx[:-1]]), (AU[idx], 0.5 * (G + G.T))
    )
    res = eigcore.solve_window(pencil, *eigcore.window_pair(window))
    res.diagnostics = {
        "method": "augmented",
        "n_fem": len(idx),
        "n_aug": Uk.shape[1],
        "M_q": P.M_q,
        "n_c": P.n_c,
    }
    return res


def a2_estimate(V, mesh, projector):
    """A2 = sup over unit-H1 P1 functions phi on the domain of ||(P_ref - P_fem) phi||_H1.

    P_fem is projector, a FEM-fiber projector (build_projector, source
    "fem") at the mesh's n_c, and P_ref the planewave-fiber projector with
    its J, n_c and M_q; ValueError for another source or n_c,
    WindowTooSmall for a mesh outside its window.  Decreasing values under
    mesh refinement are the practical certificate that the augmentation
    converges.

    The value is exact, not sampled.  D = P_ref - P_fem maps domain
    coefficients x to B K^T x with B = [U_ref, U_fem] and
    K = [(M U_ref)[idx], -(M U_fem)[idx]], of rank at most 2r (r = M_q*J).
    With G_dom = R_c^T R_c the banded Cholesky factor of the domain H1 Gram
    and R the triangle of a thin QR of R_c^{-T} K, A2^2 is the top
    eigenvalue of the 2r x 2r matrix F^T G_win F, F = B R^T.  F sums the two
    projectors' terms before anything is squared, so identical projectors
    give A2 at roundoff level.  K is unfolded from the two kernels' mass
    rows on the domain only, and F one period of rows at a time
    (fem1d.form_gram), never whole.
    """
    P_fem = projector
    J, n_c, M_q = P_fem.J, P_fem.n_c, P_fem.M_q
    source = P_fem.diagnostics.get("source")
    if source != "fem" or mesh.n_c != n_c:
        raise ValueError("a2_estimate needs a FEM projector at the mesh's n_c = %d, not a %r "
                         "one at n_c = %d" % (mesh.n_c, source, n_c))
    idx = np.arange(mesh.i_lo + 1, mesh.i_hi) + P_fem.half_index
    if idx[0] < 0 or idx[-1] >= P_fem.n_win:
        raise WindowTooSmall("mesh does not fit inside the projector window")
    P_ref = build_projector(V, J=J, n_c=n_c, M_q=M_q, source="planewave")
    # H1 Gram of the window circle; on the mesh interior, the domain's (Dirichlet)
    h1 = tuple(k + m for k, m in zip(*P_fem.forms()))
    d, o, _ = h1
    chol = eigcore.tridiagonal_cholesky(d[idx], o[idx[:-1]])
    # K = [(M U_ref)[idx], -(M U_fem)[idx]], whitened to R_c^{-T} K by a
    # transposed solve with the upper banded factor (its diagonal is
    # positive, so the solve cannot fail), then reduced to its R; both steps
    # work in place
    r = M_q * J
    dom = (idx[0], idx[-1] + 1)
    K = np.empty((len(idx), 2 * r), order="F")
    K[:, :r] = P_ref.mass_rows(*dom)
    np.negative(P_fem.mass_rows(*dom), out=K[:, r:])
    K = lapack.dtbtrs(chol, K, trans="T", overwrite_b=True)[0]
    # LAPACK's QR directly: scipy's qr(mode="r") would return R with all
    # len(idx) rows
    lwork = int(lapack.dgeqrf_lwork(*K.shape)[0])
    Rt = np.triu(lapack.dgeqrf(K, lwork=lwork, overwrite_a=True)[0][: 2 * r]).T

    def rows(lo, hi):
        # rows of F = B R^T: the two projectors' terms cancel here, before
        # anything is squared
        return np.hstack([P_ref.rows(lo, hi), P_fem.rows(lo, hi)]) @ Rt

    top = np.linalg.eigvalsh(fem1d.form_gram(h1, rows, P_fem.n_c))[-1]
    return {
        "estimate": float(np.sqrt(max(top, 0.0))),
        "n_c": int(n_c),
        "M_q": int(M_q),
        "M_pw": DEFAULT_M_PW,
    }
