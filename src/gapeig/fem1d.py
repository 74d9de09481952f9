"""P1 finite elements on truncated 1D domains, plus spectral pollution diagnostics.

Truncating H = -d^2/dx^2 + V_per + W to a finite interval with Dirichlet
conditions and diagonalizing the P1 Galerkin pencil produces, alongside
approximations of the true defect eigenvalues, spurious eigenvalues inside
spectral gaps.  These are artifacts of the boundary: they localize near the
domain endpoints and move with the truncation offset.  This module assembles
the Galerkin pencils, measures where eigenfunctions live (boundary vs
compact mass), classifies gap eigenvalues against a pollution-free
reference, and builds the half-line / junction dislocation operators whose
spectra the boundary-localized modes track.

Every P1 form of the package comes from one kernel, element_integrals plus
p1_forms, whose seam factor closes the element chain as the open line (0;
the Dirichlet pencil drops node 0), the antiperiodic window circle (-1) or
the quasiperiodic Bloch fiber (e^{iqb}).  mode_label is the one classifier
of gap eigenvalues, for every P1 route.

Every pencil here is tridiagonal and stays so: it is an
eigcore.TridiagonalPencil, whose windowed solves never form an n x n matrix
and carry an exact inertia count of the eigenvalues in the window
(diagnostics "n_in_window", next to "residual_bound"); the spectra are
those solves' eigcore.EigResult, eigenvectors included, with no use of
the supercell module.  Mesh1D refuses more than MAX_NODES nodes.
"""

import numpy as np

from gapeig import eigcore
from gapeig.errors import BasisTooLarge, MeshOffsetError

GAUSS_POINTS = 10
MATCH_TOL = 0.02
# the most nodes a mesh may hold (Mesh1D raises BasisTooLarge above it):
# galerkin_spectrum and classify_modes peaked at 1.6 kB per node under
# tracemalloc, so about 0.8 GB at the cap
MAX_NODES = 500000


class Mesh1D:
    """Uniform mesh with n_c elements per lattice period b.

    Node positions are i*h for integer i in [i_lo, i_hi], h = b/n_c, so mesh
    endpoints are always commensurate with the element size; offsets that do
    not land on the element grid raise MeshOffsetError.  The domain must span
    at least four periods and hold at most MAX_NODES nodes (BasisTooLarge).
    """

    def __init__(self, b, n_c, i_lo, i_hi):
        if int(n_c) != n_c or n_c < 2:
            raise ValueError("n_c must be an integer >= 2")
        for name, v in (("i_lo", i_lo), ("i_hi", i_hi)):
            if abs(v - round(v)) > 1e-9:
                raise MeshOffsetError("%s = %s is not an integer element index" % (name, v))
        self.b = float(b)
        self.n_c = int(n_c)
        self.i_lo = int(round(i_lo))
        self.i_hi = int(round(i_hi))
        if self.i_hi - self.i_lo < 4 * self.n_c:
            raise ValueError("domain must span at least 4 periods")
        if self.n_nodes > MAX_NODES:
            raise BasisTooLarge("mesh of %d nodes exceeds the budget of %d"
                                % (self.n_nodes, MAX_NODES))
        self.h = self.b / self.n_c

    @property
    def x_lo(self):
        return self.i_lo * self.h

    @property
    def x_hi(self):
        return self.i_hi * self.h

    @property
    def n_nodes(self):
        return self.i_hi - self.i_lo + 1

    @property
    def nodes(self):
        return np.arange(self.i_lo, self.i_hi + 1) * self.h

    def __repr__(self):
        return "Mesh1D([%g, %g], h=%g)" % (self.x_lo, self.x_hi, self.h)


def symmetric_mesh(lattice, n_c, n_half, t=0.0):
    """Mesh for the offset family of domains [-(n_half + t) b, (n_half + t) b].

    The offset t must be a multiple of 1/n_c so the endpoints stay on the
    element grid; otherwise MeshOffsetError.
    """
    if n_half < 2:
        raise ValueError("n_half must be at least 2")
    tn = t * n_c
    if abs(tn - round(tn)) > 1e-9:
        raise MeshOffsetError("offset t = %g is not a multiple of 1/n_c = 1/%d" % (t, n_c))
    i_hi = int(n_half) * int(n_c) + int(round(tn))
    return Mesh1D(lattice.b, n_c, -i_hi, i_hi)


def halfline_mesh(lattice, n_c, n_periods):
    """Mesh on [0, n_periods * b] for half-line dislocation operators."""
    return Mesh1D(lattice.b, n_c, 0, int(n_periods) * int(n_c))


def element_integrals(left, right, h, pot):
    """Potential integrals of the two P1 hats over each element [left, right].

    Returns (kll, klr, krr), the integrals of pot*phi_l^2, pot*phi_l*phi_r
    and pot*phi_r^2 per element, by GAUSS_POINTS point Gauss-Legendre:
    exact to machine precision for the smooth potentials used here.
    """
    xg, wg = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    xq = left[:, None] + 0.5 * h * (xg[None, :] + 1.0)
    wq = 0.5 * h * wg[None, :]
    pl = (right[:, None] - xq) / h
    pr = (xq - left[:, None]) / h
    wpv = wq * pot(xq)
    return (
        np.sum(wpv * pl * pl, axis=1),
        np.sum(wpv * pl * pr, axis=1),
        np.sum(wpv * pr * pr, axis=1),
    )


def p1_forms(n, h, seam=0.0, integrals=None):
    """P1 forms A (stiffness plus potential) and M (mass) on a chain of n elements.

    Element e couples node e to node e + 1; the last one wraps back to node
    0 with its coupling multiplied by seam: 0 for an open line (node 0 then
    holds both end elements, and callers drop it), -1 for the antiperiodic
    window circle, e^{iqb} for the quasiperiodic Bloch fiber.  integrals
    are the element_integrals of the potential, None for no potential.
    Each form is (diag, offdiag, seam entry); the conjugate of the seam
    entry couples node 0 to node n - 1.
    """
    kll, klr, krr = (np.zeros(n),) * 3 if integrals is None else integrals
    off = -1.0 / h + klr
    dA = (1.0 / h + kll) + np.roll(1.0 / h + krr, 1)
    dM = np.full(n, 2.0 * h / 3.0)
    oM = np.full(n - 1, h / 6.0)
    return (dA, off[:-1], seam * off[-1]), (dM, oM, seam * (h / 6.0))


def apply_form(form, X):
    """Multiply a form (diag, offdiag, seam) into a vector or the columns of X."""
    d, o, s = form
    if X.ndim == 1:
        return apply_form(form, X[:, None])[:, 0]
    Y = d[:, None] * X
    Y[:-1] += o[:, None] * X[1:]
    Y[1:] += o[:, None] * X[:-1]
    Y[-1] += s * X[0]
    Y[0] += np.conj(s) * X[-1]
    return Y


def form_gram(form, rows, block):
    """X^T A X for a real form A = (diag, offdiag, seam) on n nodes.

    X is real and never held whole: rows(lo, hi) returns its rows lo..hi-1,
    and it is asked for block rows at a time (plus the one row that couples
    a block to the next), so a tall X costs memory of one block.
    """
    d, o, s = form
    n = len(d)
    S = 0.0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        X = rows(lo, min(hi + 1, n))
        Xb = X[: hi - lo]
        C = X[:-1].T @ (o[lo:lo + len(X) - 1, None] * X[1:])
        S = S + Xb.T @ (d[lo:hi, None] * Xb) + C + C.T
    first, last = rows(0, 1)[0], rows(n - 1, n)[0]
    return S + s * np.outer(last, first) + np.conj(s) * np.outer(first, last)


def dense_form(form):
    """A form (diag, offdiag, seam) as a dense Hermitian matrix."""
    d, o, s = form
    F = np.diag(d).astype(np.result_type(d, s)) + np.diag(o, 1) + np.diag(o, -1)
    F[-1, 0] += s
    F[0, -1] += np.conj(s)
    return F


def _dirichlet_pencil(mesh, pot):
    """Tridiagonal pencil on the interior nodes (homogeneous Dirichlet): the
    open-line forms without node 0."""
    nodes = mesh.nodes
    integrals = element_integrals(nodes[:-1], nodes[1:], mesh.h, pot)
    (dA, oA, _), (dM, oM, _) = p1_forms(mesh.n_nodes - 1, mesh.h, 0.0, integrals)
    return eigcore.TridiagonalPencil((dA[1:], oA[1:]), (dM[1:], oM[1:]))


def assemble_galerkin(V, W, mesh):
    """Dirichlet P1 pencil for -d^2/dx^2 + V + W on the mesh interior."""
    return _dirichlet_pencil(mesh, lambda x: V(x) + W(x))


def _spectrum(pencil, window, extra_diag):
    """The pencil's windowed solve (an eigcore.EigResult) with its diagnostics."""
    res = eigcore.solve_window(pencil, *eigcore.window_pair(window))
    res.diagnostics = {"n_dof": pencil.n, "n_in_window": res.count,
                       "residual_bound": res.residual_bound, **extra_diag}
    return res


def galerkin_spectrum(V, W, mesh, window):
    """Eigenvalues of the truncated Galerkin operator inside the window.

    Expect pollution: some of these are spurious boundary modes, which is
    what classify_modes is for.
    """
    pencil = assemble_galerkin(V, W, mesh)
    return _spectrum(pencil, window, {"method": "galerkin", "h": mesh.h, "n_c": mesh.n_c})


def interval_mass(mesh, coeffs, lo, hi, interior=True):
    """Exact integral of |psi|^2 over [lo, hi] for a P1 function.

    coeffs are real interior-node coefficients when interior=True
    (Dirichlet) or all-node coefficients otherwise; ValueError for complex
    ones.  Partial elements are integrated exactly (the integrand is
    piecewise quadratic).
    """
    coeffs = np.asarray(coeffs)
    if np.iscomplexobj(coeffs):
        raise ValueError("interval_mass takes real coefficients")
    if interior:
        full = np.zeros(mesh.n_nodes)
        full[1:-1] = coeffs
    else:
        full = coeffs
    lo = max(lo, mesh.x_lo)
    hi = min(hi, mesh.x_hi)
    if hi <= lo:
        return 0.0
    h = mesh.h
    nodes = mesh.nodes
    c0, c1 = full[:-1], full[1:]
    u0 = np.clip((lo - nodes[:-1]) / h, 0.0, 1.0)
    u1 = np.clip((hi - nodes[:-1]) / h, 0.0, 1.0)
    dc = c1 - c0
    seg = h * (
        c0 * c0 * (u1 - u0)
        + c0 * dc * (u1 * u1 - u0 * u0)
        + dc * dc * (u1**3 - u0**3) / 3.0
    )
    return float(np.sum(seg))


def boundary_mass(mesh, coeffs):
    """Mass of a P1 eigenfunction on the two end strips of width 2b.

    Every mesh spans at least four periods, so the strips do not overlap.
    """
    strip = 2.0 * mesh.b
    return interval_mass(mesh, coeffs, mesh.x_lo, mesh.x_lo + strip) + interval_mass(
        mesh, coeffs, mesh.x_hi - strip, mesh.x_hi
    )


def compact_mass(mesh, coeffs):
    """Mass of a P1 eigenfunction on the compact set (-2b, 2b), the central
    four periods; ValueError for a mesh that does not contain it."""
    lo, hi = -2.0 * mesh.b, 2.0 * mesh.b
    if not (mesh.x_lo <= lo and hi <= mesh.x_hi):
        raise ValueError("the compact set (-2b, 2b) is not inside the domain")
    return interval_mass(mesh, coeffs, lo, hi)


class LocalizationReport:
    """Per-eigenvalue localization and classification record."""

    def __init__(self, eigenvalue, mu_boundary, mu_compact, classification):
        self.eigenvalue = float(eigenvalue)
        self.mu_boundary = float(mu_boundary)
        self.mu_compact = float(mu_compact)
        self.classification = classification

    def __repr__(self):
        return "LocalizationReport(%.6f, mu_b=%.3f, mu_K=%.3f, %s)" % (
            self.eigenvalue,
            self.mu_boundary,
            self.mu_compact,
            self.classification,
        )


def mode_label(
    eigenvalue, window, reference, match_tol=MATCH_TOL, edge_guard_frac=eigcore.DEFAULT_EDGE_GUARD
):
    """Class of one eigenvalue in the window (alpha, beta).

    A value hugging a window endpoint (within edge_guard_frac of the window
    width) is "undetermined", since at fixed mesh size the numerical band
    edge intrudes slightly into the window and such values cannot be
    attributed either way.  Otherwise it is "interior" when reference is
    None, "true" within match_tol of a pollution-free reference eigenvalue,
    and "spurious" when no reference value is that close.
    """
    if not eigcore.interior_mask(eigenvalue, window, edge_guard_frac):
        return "undetermined"
    if reference is None:
        return "interior"
    reference = np.atleast_1d(np.asarray(reference, dtype=float))
    if len(reference) and np.min(np.abs(reference - eigenvalue)) <= match_tol:
        return "true"
    return "spurious"


def classify_modes(
    mesh, result, reference, match_tol=MATCH_TOL, edge_guard_frac=eigcore.DEFAULT_EDGE_GUARD
):
    """Label windowed Galerkin eigenvalues by mode_label, with their masses.

    reference None gives "interior"/"undetermined" labels only.  Each
    report carries the boundary and compact masses of the eigenfunction.
    """
    reports = []
    for i, ev in enumerate(result.eigenvalues):
        c = result.eigenvectors[:, i]
        cls = mode_label(ev, result.window, reference, match_tol, edge_guard_frac)
        reports.append(LocalizationReport(ev, boundary_mass(mesh, c), compact_mass(mesh, c), cls))
    return reports


def dislocation_spectrum(V, kind, t, window, n_periods=40, n_c=100):
    """Spectrum of a dislocated periodic operator inside the window.

    kind "halfline+" / "halfline-" is -d^2/dx^2 + V(x +- t b) on
    [0, n_periods*b] with Dirichlet ends; "junction" glues the two shifted
    potentials V(x + t b/2) for x < 0 and V(x - t b/2) for x > 0 on the
    symmetric domain.  Sweeping t moves edge spectrum across the gap, which
    is the mechanism the truncated-domain spurious modes follow.
    """
    if n_periods < 20:
        raise ValueError("n_periods must be at least 20")
    lat = V.lattice
    tb = t * lat.b
    if kind == "halfline+":
        mesh = halfline_mesh(lat, n_c, n_periods)
        pot = lambda x: V(x + tb)
    elif kind == "halfline-":
        mesh = halfline_mesh(lat, n_c, n_periods)
        pot = lambda x: V(x - tb)
    elif kind == "junction":
        mesh = symmetric_mesh(lat, n_c, n_periods)
        pot = lambda x: np.where(x < 0, V(x + 0.5 * tb), V(x - 0.5 * tb))
    else:
        raise ValueError("kind must be 'halfline+', 'halfline-', or 'junction'")
    return _spectrum(
        _dirichlet_pencil(mesh, pot),
        window,
        {"method": "dislocation", "kind": kind, "t": float(t), "n_periods": int(n_periods)},
    )
