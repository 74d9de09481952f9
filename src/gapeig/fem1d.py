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
the quasiperiodic Bloch fiber (e^{iqb}).  localize is the one measurement
of an eigenpair, for every P1 route: the boundary and compact masses of a
P1 function given by its values at every mesh node (classify_modes pads a
Dirichlet eigenvector with its zero end values; augment's eigenfunctions do
not vanish there) and mode_label, the one classifier of gap eigenvalues.

Every pencil here is tridiagonal and stays so: it is an
eigcore.TridiagonalPencil, whose windowed solves never form an n x n matrix
and carry an exact inertia count of the eigenvalues in the window; the
spectra are those solves' eigcore.EigResult, eigenvectors, count and
residual bound included, with no use of the supercell module, and their
diagnostics hold the route's facts (method, n_dof, the mesh or the
dislocation).  Mesh1D refuses more than MAX_NODES nodes.
"""

from typing import NamedTuple

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
    res.diagnostics = {"n_dof": pencil.n, **extra_diag}
    return res


def galerkin_spectrum(V, W, mesh, window):
    """Eigenvalues of the truncated Galerkin operator inside the window.

    Expect pollution: some of these are spurious boundary modes, which is
    what classify_modes is for.
    """
    pencil = assemble_galerkin(V, W, mesh)
    return _spectrum(pencil, window, {"method": "galerkin", "h": mesh.h, "n_c": mesh.n_c})


def interval_mass(mesh, values, lo, hi):
    """Exact integral of |psi|^2 over [lo, hi] for a P1 function.

    values are psi's real values at every mesh node, end nodes included
    (a Dirichlet function has zeros there); ValueError for complex ones or
    another count.  Partial elements are integrated exactly (the integrand
    is piecewise quadratic).
    """
    values = np.asarray(values)
    if np.iscomplexobj(values) or values.shape != (mesh.n_nodes,):
        raise ValueError("interval_mass takes real values at every mesh node (%d), got %s %s"
                         % (mesh.n_nodes, values.dtype, values.shape))
    lo = max(lo, mesh.x_lo)
    hi = min(hi, mesh.x_hi)
    if hi <= lo:
        return 0.0
    h = mesh.h
    nodes = mesh.nodes
    c0, c1 = values[:-1], values[1:]
    u0 = np.clip((lo - nodes[:-1]) / h, 0.0, 1.0)
    u1 = np.clip((hi - nodes[:-1]) / h, 0.0, 1.0)
    dc = c1 - c0
    seg = h * (
        c0 * c0 * (u1 - u0)
        + c0 * dc * (u1 * u1 - u0 * u0)
        + dc * dc * (u1**3 - u0**3) / 3.0
    )
    return float(np.sum(seg))


def boundary_mass(mesh, values):
    """Mass of a P1 function (values at every node) on the two end strips of
    width 2b.

    Every mesh spans at least four periods, so the strips do not overlap.
    """
    strip = 2.0 * mesh.b
    return interval_mass(mesh, values, mesh.x_lo, mesh.x_lo + strip) + interval_mass(
        mesh, values, mesh.x_hi - strip, mesh.x_hi
    )


def compact_mass(mesh, values):
    """Mass of a P1 function (values at every node) on the compact set
    (-2b, 2b), the central four periods; ValueError for a mesh that does
    not contain it."""
    lo, hi = -2.0 * mesh.b, 2.0 * mesh.b
    if not (mesh.x_lo <= lo and hi <= mesh.x_hi):
        raise ValueError("the compact set (-2b, 2b) is not inside the domain")
    return interval_mass(mesh, values, lo, hi)


class LocalizationReport(NamedTuple):
    """One eigenpair's localization and class: the last four columns of a
    galerkin, pollution-scan or augment row."""

    eigenvalue: float
    mu_boundary: float
    mu_compact: float
    classification: str


def mode_label(eigenvalue, window, reference, match_tol=MATCH_TOL):
    """Class of one eigenvalue in the window (alpha, beta).

    A value hugging a window endpoint (eigcore.interior_mask's guard) is
    "undetermined", since at fixed mesh size the numerical band edge
    intrudes slightly into the window and such values cannot be attributed
    either way.  Otherwise it is "interior" when reference is None, "true"
    within match_tol of a pollution-free reference eigenvalue, and
    "spurious" when no reference value is that close.
    """
    if not eigcore.interior_mask(eigenvalue, window):
        return "undetermined"
    if reference is None:
        return "interior"
    reference = np.atleast_1d(np.asarray(reference, dtype=float))
    if len(reference) and np.min(np.abs(reference - eigenvalue)) <= match_tol:
        return "true"
    return "spurious"


def localize(mesh, eigenvalue, values, window, reference, match_tol=MATCH_TOL):
    """The LocalizationReport of one eigenpair: the boundary and compact
    masses of the P1 function with the given values at every mesh node, and
    the eigenvalue's mode_label.  Every galerkin, pollution-scan and augment
    row comes from here."""
    return LocalizationReport(float(eigenvalue), boundary_mass(mesh, values),
                              compact_mass(mesh, values),
                              mode_label(eigenvalue, window, reference, match_tol))


def classify_modes(mesh, result, reference, match_tol=MATCH_TOL):
    """localize every windowed Galerkin eigenpair of result.

    The eigenvectors hold the interior nodes (Dirichlet); they are padded
    with the two zero end values.  reference None gives
    "interior"/"undetermined" labels only.
    """
    values = np.zeros((mesh.n_nodes, len(result.eigenvalues)))
    values[1:-1] = result.eigenvectors
    return [localize(mesh, ev, values[:, i], result.window, reference, match_tol)
            for i, ev in enumerate(result.eigenvalues)]


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
