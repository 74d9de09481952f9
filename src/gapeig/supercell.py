"""Planewave supercell discretization of H = -Laplacian + V_per + W.

The operator is restricted to a periodized supercell of side L*b with
planewave basis k in 2*pi/(L*b) * Z^d, |k| <= 2*pi*N/(L*b).  This
discretization is pollution-free: gap eigenvalues converge to the defect
eigenvalues as L grows, with no spurious values, which makes it the
reference the FEM diagnostics compare against.

Every route reads the operator from one Fourier table T of V + W on the
_coeff_grid(L, N) FFT grid (_fourier_table): W periodized by FFT sampling,
plus V's exact coefficients, which land on the supercell frequencies L*m
(integer L).  In the planewave basis H = diag(|k|^2) + T[m_i - m_j].

A 1D supercell is solved in its fiber form (assemble_fiber_form), which
never forms an n x n matrix.  V couples mode m only to the modes m + L s,
s in V's Fourier support, so the periodic part is block diagonal over the
classes of modes those steps connect (bloch.mode_classes): the Bloch
fibers, one per coset m mod L, split further where V's support generates
a coarser lattice than Z^d.  Each class is joined with its opposite modes
and eigendecomposed in real form (_fiber_blocks), blocks of one size by
one batched eigh.  In 1D the classes are the fibers.  W is sampled on
the FFT grid, where its part of H is F diag(w) Fᴴ; on the grid points
where W is not negligible that factor has a real Gram matrix (a Dirichlet
kernel), whose eigendecomposition compresses W to rank k (63 for the
benchmark W at every L, against n = 32L + 1 planewaves).  In the fibers'
real eigenbasis H is then diag(e) - Y diag(sign) Yᵀ with Y real, an
eigcore.DiagonalLowRank: the window is counted exactly by Haynsworth
inertia, certified against the dropped part of W, and its values come
from eigcore's shift-invert Lanczos with an O(nk) Woodbury inverse.  This
path needs numpy alone.

2D supercells are solved densely when small (method "auto": up to
AUTO_DENSE_2D planewaves) and, when large, matrix-free
(_iterative_window_2d), on numpy alone: an eigcore.MatrixFree whose matvec
convolves with the same table, truncated to its bandwidth, by FFT
(_real_form_matvec), solved by block shift-invert Lanczos with block
GMRES inner solves, one per Lanczos block.  The same real blocks as the
1D fiber form right-precondition those solves (_fiber_preconditioner):
(P - sigma)⁻¹ for P = -Laplacian + V is exact on the periodic part and
block diagonal, formed once per shift and applied by one matrix product
per block.  The preconditioned operator I + W (P - sigma)⁻¹ is then the
identity plus a compact part.  The inner solves of one shift share a
recycled Krylov space (eigcore.ShiftSolver): the first solve's directions
start every later one.  At L=2, N=18 and at L=4, N=32 the first solve of
a shift takes 15-16 block iterations and every later one 8.  For the 2D
benchmark V the blocks are about half the size of the paired fibers
(6 blocks of 120-256 modes at L=2, N=18, against 4 of about 252).

V and W are real, so T[-x] = conj T[x] and H commutes with complex
conjugation, which maps the planewave of mode m to that of mode -m.  Every
mode set is centrally symmetric, so with K that permutation of the modes
U = (I + iK)/sqrt(2) turns the complex Hermitian H into the real symmetric
S = Uᴴ H U with the same spectrum, and on the table S is one real lookup
(_real_form):

    S_ij = Re T[m_i - m_j] - Im T[m_i + m_j] + delta_ij |k_i|^2.

Every route works on S, so every supercell is solved in real arithmetic
and none forms a complex n x n array.  Dense solves (method "dense", the
2D route at small sizes and the mismatched cell) build S and hand it to
LAPACK; the fiber form takes its fibers and its W factor in it; the
matrix-free solve applies it by _real_form_matvec, so its Lanczos is
symmetric and its GMRES inner solves work on real blocks of n rows.  The
lookup needs no order of the modes.  Only _real_form_matvec does: it
reads index n-1-i as the mode opposite to index i, which holds for the
lexicographic lists of supercell_wavevectors.  The same symmetry makes
the grid functions that matvec convolves real, so its FFTs are real ones
on half the grid.  Every route returns its windowed solve's
eigcore.EigResult, the result type of fem1d and augment too.
"""

import numpy as np

from gapeig import bloch, eigcore, model
from gapeig.errors import InvalidMatrix

# every route refuses (BasisTooLarge) a cell of more planewaves
MAX_PLANEWAVES = bloch.MAX_PLANEWAVES
# the dense routes (assemble_supercell, the mismatched cell) form n x n
# matrices, so they refuse (BasisTooLarge) n above DENSE_LIMIT
DENSE_LIMIT = 4200
# a 2D cell with method "auto" is solved densely up to AUTO_DENSE_2D
# planewaves and matrix-free above.  The dense eigh grows as n^3 and the
# matrix-free solve's cost with L: in the benchmark's gap window (1 BLAS
# thread, medians of 3, inner solves of a shift sharing a recycled space)
# the two took the same time at n = 1009-1129 for L = 2, about 1200 for
# L = 3 and about 1257 for L = 4; at n = 1517 dense took 0.33-0.34 s
# against 0.20-0.21 s
AUTO_DENSE_2D = 1200
# 1D fiber form: W's grid points with |w| <= SUPPORT_TOL max|w| and its
# components with s^2 <= RANK_TOL max s^2 are dropped; ROUNDOFF * ||H||
# is the allowance for roundoff in the window count's certification
SUPPORT_TOL = 1e-13
RANK_TOL = 1e-13
ROUNDOFF = 64 * np.finfo(float).eps


def __getattr__(name):
    """supercell.spla, scipy.sparse.linalg, is imported on first use (PEP 562).

    No solve here calls it any more; the attribute stays for tools that
    wrap its solvers by swapping it (a tracer), and loading it lazily keeps
    every supercell process free of scipy.
    """
    if name != "spla":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import scipy.sparse.linalg

    globals()["spla"] = scipy.sparse.linalg
    return scipy.sparse.linalg


def hausdorff(a, b):
    """Hausdorff distance between two finite point sets on the line.

    Both empty -> 0; exactly one empty -> inf.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    d1 = np.max([np.min(np.abs(b - x)) for x in a])
    d2 = np.max([np.min(np.abs(a - y)) for y in b])
    return float(max(d1, d2))


def check_cell(d, L, N, method="auto", t=None):
    """Refuse (ValueError) a cell that no route solves, before any work.

    method is "auto", "dense" or "iterative", and "iterative" is the 2D
    matrix-free solve.  A mismatched cell (an offset t, 0 <= t < 1; None
    for a commensurate one) is 1D only and solved densely, so its method is
    "auto".  The cell resolves every period by at least 4 planewaves:
    N >= 4 (L + t).
    """
    if method not in ("auto", "dense", "iterative"):
        raise ValueError("supercell method %r is none of auto/dense/iterative" % (method,))
    if method == "iterative" and d != 2:
        raise ValueError("supercell method 'iterative' is the matrix-free 2D solve; d = %d" % d)
    if t is not None:
        if d != 1:
            raise ValueError("the mismatched supercell (t = %g) is 1D only; d = %d" % (t, d))
        if method != "auto":
            raise ValueError("the mismatched supercell (t = %g) is solved densely; method %r "
                             "does not apply" % (t, method))
        if not 0 <= t < 1:
            raise ValueError("offset t = %g must lie in [0, 1)" % t)
    if N < 4 * (L + (t or 0)):
        raise ValueError("resolution ratio N/(L + t) = %d/%g is below 4" % (N, L + (t or 0)))


def supercell_wavevectors(d, L, N):
    """Integer planewave indices m with |m|_2 <= N (frequencies 2*pi*m/(L*b))."""
    if not (int(N) == N and int(L) == L and N >= L >= 1):
        raise ValueError("need integers N >= L >= 1")
    check_cell(d, L, N)
    N = int(N)
    if d == 1:
        return np.arange(-N, N + 1).reshape(-1, 1)
    rng = np.arange(-N, N + 1)
    A, B = np.meshgrid(rng, rng, indexing="ij")
    m = np.column_stack([A.ravel(), B.ravel()])
    return m[np.sum(m * m, axis=1) <= N * N]


def _coeff_grid(L, N):
    """Power-of-two FFT grid covering both the 8L sampling floor and all
    pairwise frequency differences |m_i - m_j| <= 2N."""
    need = max(8 * int(L), 4 * int(N) + 2)
    g = 1
    while g < need:
        g *= 2
    return g


def _fourier_table(V, W, L, N, grid):
    """The Fourier table of V + W on the supercell's FFT grid, and W's edge
    ratio.

    W's periodized coefficients (model.perturbation_supercell_coefficients,
    with its aliasing refusal) plus V's exact ones, which sit on the
    supercell frequencies L*m.  A V coefficient with some |L m_a| > 2N is
    left out: no pair of modes |m| <= N differs by it, and modulo grid it
    would alias onto a difference that one does.  W=None gives V's table
    alone (edge ratio None).
    """
    table = np.zeros((grid,) * V.lattice.d, dtype=complex)
    for m, c in V.fourier_coefficients().items():
        shift = int(L) * np.asarray(m, dtype=int)
        if np.all(np.abs(shift) <= 2 * N):
            table[tuple(shift % grid)] += c
    if W is None:
        return table, None
    data, edge_ratio = model.perturbation_supercell_coefficients(W, L, grid=grid)
    return data + table, edge_ratio


def _real_form(modes, kscale, table):
    """The supercell operator in real form on the planewaves modes (..., n, d),
    k = kscale * modes: S, or a stack of its blocks, read from the table T as

        S_ij = Re T[m_i - m_j] - Im T[m_i + m_j] + delta_ij |k_i|^2.

    The modes may come in any order; each set of them must be centrally
    symmetric.  The table's grid must be larger than twice every
    |m_i -+ m_j|_a, as _coeff_grid's is, so that no two of them share an
    entry.  The entries within 2 max|m| of 0 are copied out flat, so that
    m_i -+ m_j sits at p_i -+ p_j plus a constant, and rows are filled in
    chunks of about 2^18 entries, which bounds the integer index arrays.
    Raises InvalidMatrix when the table is not that of a real potential,
    its reality defect max|T[-x] - conj T[x]| above SYMMETRY_TOL max|T|:
    the real form would then drop part of H.
    """
    g, d = table.shape[0], modes.shape[-1]
    mirror = np.roll(np.flip(table), 1, axis=tuple(range(d)))
    defect = float(np.max(np.abs(mirror - table.conj()), initial=0.0))
    if not defect <= eigcore.SYMMETRY_TOL * float(np.max(np.abs(table), initial=0.0)):
        raise InvalidMatrix(
            "Fourier table is not that of a real potential: reality defect %.3e exceeds "
            "%.0e * max|T|" % (defect, eigcore.SYMMETRY_TOL)
        )
    reach = 2 * int(np.max(np.abs(modes), initial=0))
    strides = (2 * reach + 1) ** np.arange(d - 1, -1, -1)
    near = table[np.ix_(*[np.arange(-reach, reach + 1) % g] * d)].ravel()
    re, im = near.real, near.imag
    p = modes @ strides
    centre = reach * int(np.sum(strides))
    n = modes.shape[-2]
    S = np.empty(modes.shape[:-1] + (n,))
    step = max(1, (1 << 18) // p.size)
    for r in range(0, n, step):
        rows = p[..., r : r + step, None]
        S[..., r : r + step, :] = re[rows - p[..., None, :] + centre]
        S[..., r : r + step, :] -= im[rows + p[..., None, :] + centre]
    k = kscale * modes
    i = np.arange(n)
    S[..., i, i] += np.sum(k * k, axis=-1)
    return S


def assemble_supercell(V, W, L, N):
    """Dense supercell matrix in real form, S = Uᴴ H U for the operator H
    in the exponential basis e^{2 pi i m.x/(L b)} (_real_form), and its
    info {n_planewaves, grid, edge_ratio}.

    S is real, with the spectrum of H; its symmetry is validated where it
    is solved (eigcore.SymmetricPencil).  InvalidMatrix when the Fourier
    table is not that of a real potential; BasisTooLarge above
    MAX_PLANEWAVES or DENSE_LIMIT planewaves."""
    offs = supercell_wavevectors(V.lattice.d, L, N)
    n = len(offs)
    bloch.check_budget(n, min(MAX_PLANEWAVES, DENSE_LIMIT))
    grid = _coeff_grid(L, N)
    table, edge_ratio = _fourier_table(V, W, L, N, grid)
    S = _real_form(offs, 2.0 * np.pi / (L * V.lattice.b), table)
    return S, {"n_planewaves": n, "grid": grid, "edge_ratio": edge_ratio}


def _fiber_blocks(V, L, N):
    """The periodic part of a supercell in real form, block diagonal over
    the mode classes V couples, each block eigendecomposed.

    V couples planewave m only to m + L s for s in its Fourier support, so
    the periodic part is block diagonal over the classes of modes those
    steps connect (bloch.mode_classes): the Bloch fibers at the
    quasimomenta 2 pi r/(L b), r in (Z/L)^d, split further into the cosets
    of the lattice V's support generates.  Each class is joined with its
    opposite modes: the joined modes are centrally symmetric, so the block
    has a real form (_real_form), and that is what is eigendecomposed.  The
    real form's entries depend on the two modes alone, so the blocks are
    those of the real form of the periodic part.  Blocks of one size
    share one batched eigh.  Returns [(rows, e, Q)] per size, sizes
    ascending and blocks by smallest mode index: rows[b] are the basis
    rows of block b, ascending, e[b] its eigenvalues and Q[b] its real
    orthonormal eigenvectors.
    """
    L, N = int(L), int(N)
    modes = supercell_wavevectors(V.lattice.d, L, N)
    kscale = 2.0 * np.pi / (L * V.lattice.b)
    table, _ = _fourier_table(V, None, L, N, _coeff_grid(L, N))
    groups = []
    for rows in bloch.mode_classes(modes, L * bloch.coupling_steps(V), opposite=True):
        e, Q = np.linalg.eigh(_real_form(modes[rows], kscale, table))
        groups.append((rows, e, Q))
    return groups


def _dirichlet(j, N, g):
    """sum_{|m| <= N} e^{2 pi i m j/g} = sin((2N+1) pi j/g) / sin(pi j/g)."""
    j = np.asarray(j, dtype=float)
    out = np.full(j.shape, 2.0 * N + 1.0)
    nz = j != 0
    out[nz] = np.sin((2 * N + 1) * np.pi * j[nz] / g) / np.sin(np.pi * j[nz] / g)
    return out


def _compress_perturbation(w, N, g):
    """Low-rank factor of the W part of a 1D supercell.

    With x_p the g grid points of the cell and w_p = W(x_p), the W part of
    H on the planewaves |m| <= N is F diag(w) Fᴴ, F_mp = e^{-2 pi i m x_p/(Lb)}/sqrt(g)
    (W's part of the Fourier table, summed the other way).  Grid points
    with |w_p| <= SUPPORT_TOL max|w| are dropped.  On each sign's support
    S, B = F_S diag(sqrt|w_S|) has the real Gram matrix
    BᴴB = diag(sqrt|w|) D diag(sqrt|w|)/g with D the Dirichlet kernel of
    p - q, so its eigendecomposition BᴴB = U diag(s^2) Uᴴ gives BBᴴ ~ Z Zᴴ,
    Z = B U_k, keeping the s^2 above RANK_TOL of the largest; each column
    of Z is one real FFT, since it is the transform of a real grid
    function.  So K Z = conj(Z) (K maps mode m to -m), and in the real form
    (_real_form) Uᴴ Z = e^{-i pi/4} R with R = Re Z - Im Z real.  Returns
    (R, sign, support, dropped): Uᴴ W U ~ -R diag(sign) Rᵀ, support the
    number of grid points kept and dropped a bound on the spectral norm of
    what was left out (F Fᴴ = I, so a dropped point moves W by at most its
    |w_p|).
    """
    ms = np.arange(-N, N + 1)
    peak = float(np.max(np.abs(w), initial=0.0))
    kept = np.abs(w) > SUPPORT_TOL * peak
    dropped = float(np.max(np.abs(w[~kept]), initial=0.0))
    parts = []
    for w_sign in (-1.0, 1.0):
        S = np.flatnonzero(kept & (w_sign * w > 0.0))
        root = np.sqrt(np.abs(w[S]))
        G = root[:, None] * _dirichlet(S[:, None] - S[None, :], N, g) * root[None, :] / g
        s2, U = np.linalg.eigh(G)
        parts.append((w_sign, S, root, s2, U))
    top = max((float(s2[-1]) for _, _, _, s2, _ in parts if len(s2)), default=0.0)
    phase = np.where(ms % 2, -1.0, 1.0) / np.sqrt(g)
    cols, sign = [], []
    for w_sign, S, root, s2, U in parts:
        keep = s2 > RANK_TOL * top
        dropped += float(np.max(s2[~keep], initial=0.0))
        full = np.zeros((g, int(np.count_nonzero(keep))))
        full[S] = root[:, None] * U[:, keep]
        # F_mp = (-1)^m e^{-2 pi i m p/g}/sqrt(g): the cell starts at -Lb/2;
        # a real column's mode -m is the conjugate of its mode m (g > 4N)
        pos = np.fft.rfft(full, axis=0)[:N + 1]
        cols.append(np.concatenate([pos[:0:-1].conj(), pos]) * phase[:, None])
        sign += [-w_sign] * full.shape[1]
    Z = np.hstack(cols)
    return Z.real - Z.imag, np.array(sign), int(np.count_nonzero(kept)), dropped


def assemble_fiber_form(V, W, L, N):
    """The 1D supercell operator as Bloch fibers plus a low-rank W: a real
    eigcore.DiagonalLowRank, H ~ diag(e) - Y diag(sign) Yᵀ.

    e are the eigenvalues of the fibers of the periodic part in real form
    (_fiber_blocks), and Y = Qᵀ R is the compressed W in real form
    (_compress_perturbation) in the fibers' real eigenbasis Q.  The
    operator is orthogonally similar to assemble_supercell's real form S
    up to the dropped part of W; its tol adds to that bound a roundoff
    allowance, so its window counts hold for the assembled S.  Nothing
    n x n is formed.  info holds n_planewaves, grid, edge_ratio, rank_w
    (the rank k of Y) and support_points (the grid points of W kept).
    """
    L, N = int(L), int(N)
    grid = _coeff_grid(L, N)
    # the aliasing refusal of the dense assembly, and its edge ratio
    _, edge_ratio = model.perturbation_supercell_coefficients(W, L, grid=grid)
    x = model.cell_points(L * V.lattice.b, grid)
    w = W(x) + np.zeros_like(x)  # a W without terms evaluates to the scalar 0
    R, sign, support, dropped = _compress_perturbation(w, N, grid)
    es, Ys = [], []
    for rows, e, Q in _fiber_blocks(V, L, N):
        es.append(e.ravel())
        Ys.append(np.matmul(Q.transpose(0, 2, 1), R[rows]).reshape(e.size, R.shape[1]))
    e = np.concatenate(es)
    Y = np.concatenate(Ys)
    scale = float(np.max(np.abs(e))) + float(np.sum(np.linalg.norm(Y, axis=0) ** 2, initial=0.0))
    op = eigcore.DiagonalLowRank(e, Y, sign, tol=dropped + ROUNDOFF * scale)
    op.info = {
        "n_planewaves": len(e),
        "grid": grid,
        "edge_ratio": edge_ratio,
        "rank_w": Y.shape[1],
        "support_points": support,
    }
    return op


def _real_form_matvec(table, offs, kscale, L):
    """Matrix-free real form of the 2D supercell operator.

    H = diag(|k|^2) + table[m_i - m_j] on the planewaves offs, with the
    convolution done by FFT on a G x G grid.  The table is truncated to its
    bandwidth bw, the largest |Δ_a| of an entry above 1e-13 of its largest,
    and G is the smallest power of two with G >= 2N + bw + 2 and G >= 8L, so
    that no product of a mode with the table wraps around onto a mode.
    Returns (matvec, G): matvec(X) = S X for a real block X (n, p), with
    S = Uᴴ H U = Re H + (K Im H - Im H K)/2 the real form _real_form
    builds densely.  K is the index reversal: the modes must be listed so
    that index n-1-i holds the mode opposite to index i, as
    supercell_wavevectors lists them.

    S x = Re(Uᴴ H c) with c = x + i K x, and for a real x the coefficients
    a = e^{-i pi/4} c satisfy a_{-m} = conj(a_m) (K maps mode m to -m), so
    they are those of a real grid function, and so is its product with the
    real potential.  Both transforms are therefore real FFTs on the
    G x (G/2 + 1) half grid, m_y >= 0 (no mode reaches the Nyquist column
    G/2); a mode with m_y < 0 is read as the conjugate of its mirror -m.
    The transforms run axis by axis, the one along x over the N + 1
    half-grid columns that hold modes only, and the p columns of a block
    as one stack.  With sqrt(2) a = (x + Kx) + i (Kx - x) convolved into
    r + i t, and |k|^2 symmetric under K,
    S x = |k|^2 x + ((r - t) + K (r + t))/4.
    """
    g = table.shape[0]
    freq = np.rint(np.fft.fftfreq(g) * g).astype(int)
    big = np.abs(table) > 1e-13 * np.max(np.abs(table), initial=0.0)
    bw = max(int(np.max(np.abs(freq[idx]), initial=0)) for idx in np.nonzero(big))
    N = int(np.max(np.abs(offs)))
    G = 1
    while G < 2 * N + bw + 2 or G < 8 * L:
        G *= 2
    band = np.flatnonzero(np.abs(freq) <= bw)
    near = np.zeros((G, G), dtype=complex)
    near[np.ix_(freq[band] % G, freq[band] % G)] = table[np.ix_(band, band)]
    # the table is Hermitian, so the potential it convolves with is real;
    # the 1/4 of the real form is folded into it
    u = np.fft.ifft2(near).real * (G * G / 4)
    k = kscale * offs
    k2 = np.sum(k * k, axis=1)
    upper = offs[:, 1] >= 0
    put = (offs[upper, 0] % G) * (N + 1) + offs[upper, 1]
    # every mode read from the half grid: m itself, or -m conjugated
    flip = np.where(upper, 1, -1)
    get = ((flip * offs[:, 0]) % G) * (N + 1) + flip * offs[:, 1]

    def matvec(X):
        # one row per column: the reversal K then runs along rows
        x = np.ascontiguousarray(X.T)
        p = len(x)
        F = np.zeros((p, G * (N + 1)), dtype=complex)
        F[:, put] = ((x + x[:, ::-1]) + 1j * (x[:, ::-1] - x))[:, upper]
        grid = np.fft.irfft(np.fft.ifft(F.reshape(p, G, N + 1), axis=1), n=G, axis=2)
        conv = np.fft.fft(np.fft.rfft(u * grid, axis=2)[..., : N + 1], axis=1)
        conv = conv.reshape(p, -1)[:, get]
        r, t = conv.real, flip * conv.imag
        return np.ascontiguousarray((k2 * x + (r - t) + (r + t)[:, ::-1]).T)

    return matvec, G


def _fiber_preconditioner(V, L, N):
    """precondition(sigma): (P - sigma)⁻¹ in the real form, for the periodic
    part P = -Laplacian + V of a supercell, and the sorted sizes of its
    blocks.

    P's real form is block diagonal over the mode classes V couples, each
    eigendecomposed once (_fiber_blocks), P = Q diag(e) Qᵀ.
    precondition(sigma) forms Q diag(1/(e - sigma)) Qᵀ block by block once,
    and applies it to a block of columns with one matrix product per
    block: real, symmetric, indefinite, and exactly (S - sigma)⁻¹ when
    W = 0.  It raises LinAlgError when sigma is an eigenvalue of P.
    """
    groups = _fiber_blocks(V, L, N)

    def precondition(sigma):
        if not all(np.all(e - sigma) for _, e, _ in groups):
            raise np.linalg.LinAlgError("the shift is an eigenvalue of the periodic part")
        weighted = [(rows, (Q / (e - sigma)[:, None, :]) @ Q.transpose(0, 2, 1))
                    for rows, e, Q in groups]

        def apply(X):
            Y = np.empty_like(X)
            for rows, P in weighted:
                Y[rows] = P @ X[rows]
            return Y

        return apply

    return precondition, sorted(rows.shape[1] for rows, _, _ in groups for _ in rows)


def _iterative_window_2d(V, W, L, N, offs, alpha, beta):
    """Matrix-free shift-invert solve of the large 2D supercell on the
    planewaves offs, on numpy alone.

    The operator is the real form S of the dense route's H, applied by FFT
    from the same Fourier table (_real_form_matvec), as an
    eigcore.MatrixFree: block shift-invert Lanczos at the window centre
    sigma, with block GMRES inner solves of (S - sigma) Z = R on real
    blocks of n rows, right-preconditioned by the Bloch fiber blocks of V
    (_fiber_preconditioner), whose sizes preconditioner_blocks lists.
    The inner solves of the shift share one recycled Krylov space
    (eigcore.ShiftSolver).  A failed inner solve raises NotConverged;
    inner_solves counts the right-hand sides solved and inner_iterations
    the applications of S to a column inside GMRES (block iterations times
    columns, a re-solve without the recycled space included).  The window
    is complete by the Lanczos rule (a converged value at or beyond its
    half-width from sigma), or the solve raises; the result has no count,
    and its residual_bound bounds ||S v - lambda v|| after the closing
    Rayleigh-Ritz step with the true matvec.
    """
    n = len(offs)
    kscale = 2.0 * np.pi / (L * V.lattice.b)
    table, edge_ratio = _fourier_table(V, W, L, N, _coeff_grid(L, N))
    matvec, G = _real_form_matvec(table, offs, kscale, L)
    precondition, blocks = _fiber_preconditioner(V, L, N)
    op = eigcore.MatrixFree(n, matvec, precondition)
    res = eigcore.solve_window(op, alpha, beta, with_vectors=False)
    res.diagnostics = {
        "method": "shift-invert",
        "n_planewaves": n,
        "fft_grid": G,
        "preconditioner_blocks": blocks,
        "inner_solves": op.inner_solves,
        "inner_iterations": op.inner_iterations,
        "edge_ratio": edge_ratio,
    }
    return res


def supercell_spectrum(V, W, L, N, window, method="auto"):
    """Gap eigenvalues of the supercell operator inside the window: the
    eigcore.EigResult of its windowed solve, with the route's diagnostics.

    method "dense" solves the assembled real form (assemble_supercell) with
    a windowed LAPACK call, which counts the window and bounds no residual;
    "iterative" (2D only) uses the matrix-free path (_iterative_window_2d),
    which bounds the residual and has no count, and whose diagnostics carry
    its inner-solve counts.  "auto" takes, in 1D, the fiber form
    (assemble_fiber_form) with its inertia-certified count and Woodbury
    shift-invert Lanczos, whose residual_bound, widened by the form's tol,
    bounds ||H v - lambda v|| for the assembled H, and whose diagnostics
    carry lanczos_steps; in 2D it solves densely up to AUTO_DENSE_2D
    planewaves and matrix-free above.  A cell that check_cell refuses
    raises ValueError before any work.
    """
    lat = V.lattice
    check_cell(lat.d, L, N, method)
    alpha, beta = eigcore.window_pair(window)
    offs = supercell_wavevectors(lat.d, L, N)
    L, N, n = int(L), int(N), len(offs)
    bloch.check_budget(n, MAX_PLANEWAVES)
    if method == "auto" and lat.d == 1:
        op = assemble_fiber_form(V, W, L, N)
        res = eigcore.solve_window(op, alpha, beta, with_vectors=False)
        res.residual_bound += op.tol
        res.diagnostics = {**op.info, "method": "fibers", "lanczos_steps": res.lanczos_steps}
    elif method == "dense" or (method == "auto" and n <= AUTO_DENSE_2D):
        S, info = assemble_supercell(V, W, L, N)
        res = eigcore.solve_window(eigcore.SymmetricPencil(S), alpha, beta, with_vectors=False)
        res.diagnostics = {**info, "method": "dense"}
    else:
        res = _iterative_window_2d(V, W, L, N, offs, alpha, beta)
    res.diagnostics.update({"L": L, "N": N})
    return res


def mismatched_supercell_spectrum(V, W, L, t, N, window):
    """Supercell spectrum on a deliberately incommensurate cell of side (L+t)*b.

    With 0 < t < 1 the periodic potential no longer fits the cell, so its
    periodization carries a jump at the cell boundary; the resulting slow
    Fourier tail is kept on purpose (no aliasing refusal here) because the
    point of this variant is to show how breaking commensurability pollutes
    the gap.  1D only (check_cell, which raises ValueError before any
    work); returns the eigcore.EigResult of the dense windowed solve, with
    the route's diagnostics.
    """
    lat = V.lattice
    check_cell(lat.d, L, N, t=t)
    alpha, beta = eigcore.window_pair(window)
    N = int(N)
    n = 2 * N + 1
    bloch.check_budget(n, min(MAX_PLANEWAVES, DENSE_LIMIT))
    span = (L + t) * lat.b
    grid = _coeff_grid(int(np.ceil(L + t)), N)
    table, edge_ratio = model.fourier_sample(lambda x: V(x) + W(x), 1, span, grid)
    S = _real_form(np.arange(-N, N + 1)[:, None], 2.0 * np.pi / span, table)
    res = eigcore.solve_window(eigcore.SymmetricPencil(S), alpha, beta, with_vectors=False)
    res.diagnostics = {
        "method": "dense-mismatched",
        "L": float(L),
        "t": float(t),
        "N": N,
        "edge_ratio": edge_ratio,
        "n_planewaves": n,
    }
    return res


def convergence_scan(V, W, L_values, ratio, window, method="auto"):
    """Supercell spectra for increasing L at fixed N/L, each by
    supercell_spectrum with the given method, with Hausdorff deltas.

    Every cell, N = round(ratio L), passes check_cell (ValueError) before
    any is solved.  Returns a list of rows {L, N, result, interior,
    delta_prev}: result is the cell's eigcore.EigResult, with its
    certificate and diagnostics, and delta_prev is the Hausdorff distance
    between consecutive interior gap eigenvalue sets (inf when one is
    empty, 0 when both are).  The distance
    uses interior sets because larger supercells sample the bands at more
    quasimomenta and pick up band-edge values just inside a window whose
    endpoints were themselves computed on a finite quasimomentum grid; those
    values are essential spectrum, not gap eigenvalues.
    """
    cells = [(L, int(round(ratio * L))) for L in L_values]
    for L, N in cells:
        check_cell(V.lattice.d, L, N, method)
    rows = []
    prev = None
    for L, N in cells:
        res = supercell_spectrum(V, W, L, N, window, method=method)
        interior = res.interior()
        delta = None if prev is None else hausdorff(prev, interior)
        rows.append(
            {
                "L": int(L),
                "N": N,
                "result": res,
                "interior": interior,
                "delta_prev": delta,
            }
        )
        prev = interior
    return rows
