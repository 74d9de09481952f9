"""Bloch band structure of -Laplacian + V_per via planewave fiber matrices.

For each quasimomentum q in the Brillouin zone the fiber operator is
diagonalized in the planewave basis e^{i(q+G).x} with |G|_inf <= 2*pi*M_pw/b.
Band functions are sampled on a symmetric midpoint grid of M_q points per
axis (which contains no high-symmetry points and is invariant under
q -> -q), and spectral gaps are located from the sampled band ranges with a
finite-difference estimate of what the grid can actually resolve.  V is
real, so eps_j(-q) = eps_j(q): the sweep solves the first half of the grid
and mirrors it onto the second.

A fiber is complex Hermitian in general.  When V is even about some point
c, the potential translated there, V(c + .), has real Fourier coefficients,
and then every fiber is real symmetric: assemble_fiber builds a float64
matrix whenever all coefficients are real, which LAPACK solves in real
arithmetic.  A translation does not change any fiber's spectrum, so the
sweep runs on model.PeriodicPotential.centred() whenever V has an inversion
centre (the shipped 2D potential does; the 1D one does not) and keeps the
complex fibers otherwise.

A fiber couples mode G only to G + s for s in V's Fourier support S, so
it is block diagonal over the classes of modes those steps connect
(mode_classes): the cosets of the lattice S generates, as far as the
truncated basis keeps them connected.  The 1D benchmark's support
{+-1, +-2} generates Z, one class; the 2D one's {+-(1,0), +-(2,2)}
generates a lattice of index 2 (that V also has period pi in y), so each
361-mode fiber is two blocks of 171 and 190.  The sweep assembles V's
couplings once and solves each class over stacks of quasimomenta, where
only the kinetic diagonal changes.  supercell uses the same classes, with
steps L*S, for the Bloch fibers of a supercell.
"""

import itertools

import numpy as np

from gapeig import eigcore
from gapeig.errors import BasisTooLarge, NoGap, QGridAsymmetric

# the most planewaves a fiber or a supercell basis may hold
MAX_PLANEWAVES = 20000
GAP_TOL = 1e-6
DEGENERACY_TOL = 1e-10
DEFAULT_M_PW = {1: 32, 2: 9}
DEFAULT_M_Q = {1: 64, 2: 32}
# quasimomenta per stacked eigvalsh call of the band sweep, and per task of
# a threaded one (stacks of 2 gave the threads too little work to gain)
SWEEP_CHUNK = 4


def fiber_offsets(d, M_pw):
    """Integer planewave offsets with sup-norm at most M_pw, lexicographic order."""
    rng = np.arange(-M_pw, M_pw + 1)
    if d == 1:
        return rng.reshape(-1, 1)
    A, B = np.meshgrid(rng, rng, indexing="ij")
    return np.column_stack([A.ravel(), B.ravel()])


def _offset_index(offsets_matrix, M_pw, d):
    """Linear index of each row of an integer offset matrix, -1 when out of range."""
    n1 = 2 * M_pw + 1
    ok = np.all(np.abs(offsets_matrix) <= M_pw, axis=1)
    lin = np.zeros(len(offsets_matrix), dtype=int)
    for ax in range(d):
        lin = lin * n1 + (offsets_matrix[:, ax] + M_pw)
    lin[~ok] = -1
    return lin


def check_budget(n, max_planewaves):
    """BasisTooLarge when n planewaves exceed the budget max_planewaves."""
    if n > max_planewaves:
        raise BasisTooLarge(
            "%d planewaves exceed the budget of %d; refusing to truncate" % (n, max_planewaves)
        )


def coupling_steps(V):
    """V's Fourier support without 0, as an (s, d) integer array: the steps
    m -> m + s by which V couples planewave modes."""
    d = V.lattice.d
    steps = [m for m, c in V.fourier_coefficients().items() if c != 0 and any(m)]
    return np.array(steps, dtype=int).reshape(-1, d)


def mode_classes(modes, steps, opposite=False):
    """The classes of planewave modes that the coupling steps connect.

    modes is an (n, d) integer array and steps an (s, d) one closed under
    negation (V's support, or L times it in a supercell).  A matrix that
    couples mode m only to the modes m + s is block diagonal over the
    connected components of this coupling graph, which are found by
    min-label propagation with pointer jumping over precomputed neighbour
    indices.  With opposite set, mode m is also joined with -m (which must
    be among the modes), so every class is closed under m -> -m, as a real
    form needs.  Returns one (k, s) array per class size s, sizes
    ascending: row b holds the mode indices of one class, ascending, and
    classes of one size are ordered by their smallest index.
    """
    modes = np.asarray(modes, dtype=int)
    n = len(modes)
    lo = modes.min(axis=0)
    ext = modes.max(axis=0) - lo + 1
    lookup = np.full(int(np.prod(ext)), -1)
    lookup[np.ravel_multi_index((modes - lo).T, ext)] = np.arange(n)
    targets = [modes[:, None, :] + np.asarray(steps, dtype=int)[None, :, :]]
    if opposite:
        targets.append(-modes[:, None, :])
    rel = np.concatenate(targets, axis=1) - lo
    inside = np.all((rel >= 0) & (rel < ext), axis=-1)
    nbr = np.full(inside.shape, -1)
    nbr[inside] = lookup[np.ravel_multi_index(tuple(rel[inside].T), ext)]
    # a step that leaves the modes links a mode to itself
    nbr = np.where(nbr >= 0, nbr, np.arange(n)[:, None])
    label = np.arange(n)
    while True:
        new = np.minimum(label, label[nbr].min(axis=1, initial=n))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    # the distinct sizes by set, not np.unique: a flagless np.unique imports numpy.ma
    return [order[starts[sizes == size][:, None] + np.arange(size)[None, :]]
            for size in sorted(set(sizes.tolist()))]


def _coupling_matrix(V, M_pw):
    """The fiber offsets and V's part of every fiber on them: C[i, j] is
    V's Fourier coefficient at offs[i] - offs[j].

    C is float64 when every coefficient of V is real and complex otherwise;
    a fiber is C plus its kinetic diagonal.  BasisTooLarge, before C is
    formed, when a fiber has more than MAX_PLANEWAVES modes."""
    d = V.lattice.d
    offs = fiber_offsets(d, M_pw)
    n = len(offs)
    check_budget(n, MAX_PLANEWAVES)
    coeffs = V.fourier_coefficients()
    real = all(c.imag == 0 for c in coeffs.values())
    C = np.zeros((n, n), dtype=float if real else complex)
    cols = np.arange(n)
    for m, c in coeffs.items():
        if c == 0:
            continue
        rows = _offset_index(offs + np.asarray(m, dtype=int)[None, :], M_pw, d)
        keep = rows >= 0
        C[rows[keep], cols[keep]] += c.real if real else c
    return offs, C


def _kinetic(lattice, q, offs):
    """|q + G|^2 for each quasimomentum row of q (..., d) and offset of offs."""
    k = q[..., None, :] + lattice.reciprocal * offs
    return np.sum(k * k, axis=-1)


def assemble_fiber(V, q, M_pw):
    """Fiber pencil at quasimomentum q: kinetic diagonal plus V Fourier couplings.

    The matrix is real symmetric (float64) when every Fourier coefficient of
    V is real, i.e. V is even about the origin, and complex Hermitian
    otherwise."""
    d = V.lattice.d
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape != (d,):
        raise ValueError("q must have %d components" % d)
    offs, H = _coupling_matrix(V, M_pw)
    H[np.diag_indices(len(offs))] += _kinetic(V.lattice, q, offs)
    return eigcore.SymmetricPencil(H)


def fiber_bands(V, q, M_pw, J_max, with_vectors=False):
    """Lowest J_max eigenpairs of the fiber at q."""
    pencil = assemble_fiber(V, q, M_pw)
    return eigcore.solve_lowest(pencil, J_max, with_vectors=with_vectors)


def midpoint_grid(lattice, M_q):
    """Per-axis symmetric midpoint quasimomentum grid over (-pi/b, pi/b]."""
    if M_q < 2 or M_q % 2:
        raise QGridAsymmetric("M_q must be an even integer >= 2 for a +-q symmetric grid")
    # mirrored from the positive half, so grid[::-1] == -grid holds exactly
    half = lattice.reciprocal * (np.arange(M_q // 2) + 0.5) / M_q
    return np.concatenate((-half[::-1], half))


class BandStructure:
    """Sampled band functions: qpoints (N, d) and bands (N, J_max), plus grid shape.

    fiber_form is "real" when the sweep solved real symmetric fibers and
    "complex" otherwise; inversion_centre is the centre c of V they were
    built about (None when V has none); fiber_classes are the sorted sizes
    of the mode classes each fiber splits into (mode_classes)."""

    def __init__(self, lattice, M_pw, M_q, qpoints, bands, fiber_form="complex",
                 inversion_centre=None, fiber_classes=None):
        self.lattice = lattice
        self.M_pw = M_pw
        self.M_q = M_q
        self.qpoints = qpoints
        self.bands = bands
        self.fiber_form = fiber_form
        self.inversion_centre = inversion_centre
        self.fiber_classes = fiber_classes

    @property
    def J_max(self):
        return self.bands.shape[1]

    def grid_bands(self):
        """Bands reshaped onto the (M_q,)*d quasimomentum grid."""
        d = self.lattice.d
        return self.bands.reshape((self.M_q,) * d + (self.J_max,))

    def band_range(self, j):
        """(min, max) of band j (1-based) over the grid."""
        col = self.bands[:, j - 1]
        return float(np.min(col)), float(np.max(col))


def band_structure(V, M_pw=None, M_q=None, J_max=4, threads=1):
    """Sample the lowest J_max bands on the midpoint quasimomentum grid.

    The grid points in lexicographic order satisfy qpoints[N-1-p] ==
    -qpoints[p] exactly and none is its own mirror (M_q is even), so only
    the first N/2 fibers are solved: bands[N-1-p] = bands[p], since
    eps(-q) = eps(q) for real V.

    When V has an inversion centre c the fibers are those of V(c + .), whose
    Fourier coefficients are real, so each is a real symmetric matrix with
    the spectrum of V's own complex Hermitian fiber; otherwise they are
    V's complex fibers.  The result's fiber_form and inversion_centre say
    which was used.

    Only the kinetic diagonal of a fiber depends on q.  V's part is
    assembled and validated (eigcore.SymmetricPencil) once; a real diagonal
    keeps it Hermitian.  Every fiber is block diagonal over the mode
    classes V couples (mode_classes), so each class is solved on its own,
    classes of one size as one stack of eigvalsh calls over SWEEP_CHUNK
    quasimomenta at a time (bounded memory, and results that do not depend
    on threads, which only spreads the chunks), and the lowest J_max values
    of all classes are merged.
    """
    lat = V.lattice
    d = lat.d
    if M_pw is None:
        M_pw = DEFAULT_M_PW[d]
    if M_q is None:
        M_q = DEFAULT_M_Q[d]
    axis = midpoint_grid(lat, M_q)
    qpoints = np.array(list(itertools.product(axis, repeat=d)))
    half = qpoints[: len(qpoints) // 2]
    centred = V.centred()
    sweep = V if centred is None else centred
    offs, C = _coupling_matrix(sweep, M_pw)
    if not 1 <= J_max <= len(offs):
        raise ValueError("J_max must be between 1 and the fiber size %d" % len(offs))
    eigcore.SymmetricPencil(C)
    classes = [(C[rows[:, :, None], rows[:, None, :]], offs[rows])
               for rows in mode_classes(offs, coupling_steps(sweep))]

    def solve(qs):
        parts = []
        for blocks, block_offs in classes:
            H = np.repeat(blocks[None], len(qs), axis=0)
            i = np.arange(blocks.shape[-1])
            H[..., i, i] += _kinetic(lat, qs[:, None, :], block_offs)
            parts.append(np.linalg.eigvalsh(H)[..., :J_max].reshape(len(qs), -1))
        return np.sort(np.concatenate(parts, axis=1), axis=1)[:, :J_max]

    chunks = [half[i : i + SWEEP_CHUNK] for i in range(0, len(half), SWEEP_CHUNK)]
    if threads > 1:
        # imported here: concurrent.futures brings logging into every process
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(solve, chunks))
    else:
        results = [solve(qs) for qs in chunks]
    bands = np.concatenate(results)
    bands = np.concatenate((bands, bands[::-1]))
    sizes = sorted(len(block) for blocks, _ in classes for block in blocks)
    if centred is None:
        return BandStructure(lat, M_pw, M_q, qpoints, bands, fiber_classes=sizes)
    return BandStructure(lat, M_pw, M_q, qpoints, bands, "real", list(centred.centre), sizes)


def _resolution_estimate(grid, point):
    """Bound on how far the true band extremum can exceed the grid extremum.

    Uses periodic one-sided differences and second differences at the given
    grid point; first order term delta_q/2 * slope plus a curvature margin.
    Bands are Lipschitz in q, so a gap narrower than this cannot be certified
    at the current M_q.
    """
    d = grid.ndim
    M_q = grid.shape[0]
    dq = 1.0 / M_q  # in units of the reciprocal cell width
    g = 0.0
    c = 0.0
    for ax in range(d):
        up = list(point)
        dn = list(point)
        up[ax] = (point[ax] + 1) % M_q
        dn[ax] = (point[ax] - 1) % M_q
        e0 = grid[tuple(point)]
        ep = grid[tuple(up)]
        em = grid[tuple(dn)]
        g += max(abs(ep - e0), abs(e0 - em)) / dq
        c += abs(ep - 2.0 * e0 + em) / dq**2
    return 0.5 * dq * g + 0.625 * dq**2 * c


class GapWindow:
    """Open interval (alpha, beta) free of essential spectrum above component J."""

    def __init__(self, J, alpha, beta, info=None):
        self.J = J
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.info = info or {}

    @property
    def gamma(self):
        return 0.5 * (self.alpha + self.beta)

    def __repr__(self):
        return "GapWindow(J=%d, alpha=%.6f, beta=%.6f)" % (self.J, self.alpha, self.beta)


def find_gap(bs, J, gap_tol=GAP_TOL):
    """Locate the spectral gap above the J-th band component.

    Consecutive bands whose sampled ranges touch, overlap, or are closer than
    the grid resolution estimate are merged into one component; this is what
    makes touching bands (conical points, folded free bands) report NoGap
    instead of a spurious narrow window.  Band edges are the sampled grid
    extrema; no off-grid refinement is performed.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    grid = bs.grid_bands()
    nb = bs.J_max
    flat = grid.reshape(-1, nb)
    mins = flat.argmin(axis=0)
    maxs = flat.argmax(axis=0)
    shape = grid.shape[:-1]
    # gap between consecutive index bands, with resolution estimates at the
    # two facing extrema
    closed = []
    for j in range(nb - 1):
        top = float(flat[maxs[j], j])
        bot = float(flat[mins[j + 1], j + 1])
        raw = bot - top
        p_top = np.unravel_index(maxs[j], shape)
        p_bot = np.unravel_index(mins[j + 1], shape)
        est = _resolution_estimate(grid[..., j], p_top) + _resolution_estimate(
            grid[..., j + 1], p_bot
        )
        closed.append(raw <= gap_tol + est)
    # connected components of index bands
    comps = []
    start = 0
    for j in range(nb - 1):
        if not closed[j]:
            comps.append((start, j))
            start = j + 1
    comps.append((start, nb - 1))
    if J > len(comps):
        raise NoGap(
            "only %d band components resolved below band %d; no gap above component %d"
            % (len(comps), nb, J)
        )
    lo, hi = comps[J - 1]
    if hi == nb - 1:
        raise NoGap(
            "no resolvable gap above band component %d within the first %d bands "
            "(bands above merge into it at this resolution)" % (J, nb)
        )
    alpha = float(flat[maxs[hi], hi])
    beta = float(flat[mins[hi + 1], hi + 1])
    info = {
        "M_pw": bs.M_pw,
        "M_q": bs.M_q,
        "component_bands": (lo + 1, hi + 1),
        "band_ranges": [bs.band_range(j + 1) for j in range(nb)],
    }
    return GapWindow(J, alpha, beta, info)

