"""Problem data: lattices, trigonometric periodic potentials, localized perturbations.

The operator under study is H = -Laplacian + V_per + W on R^d (d = 1 or 2).
V_per is a finite sum of cosine/sine modes on a cubic lattice of period b and
W is a finite sum of polynomial-times-Gaussian bumps.  Both are cheap to
evaluate pointwise and have closed-form or FFT-computable Fourier data, which
is what the discretizations in the other modules consume.
"""

import itertools

import numpy as np

from gapeig import eigcore
from gapeig.errors import ResolutionError

ALIASING_TOL = 1e-8


class Lattice:
    """Cubic lattice in dimension d with period b along every axis."""

    def __init__(self, d, b):
        if d not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not (b > 0):
            raise ValueError("lattice period must be positive")
        self.d = int(d)
        self.b = float(b)

    @property
    def reciprocal(self):
        """Reciprocal lattice spacing 2*pi/b."""
        return 2.0 * np.pi / self.b

    def __repr__(self):
        return "Lattice(d=%d, b=%g)" % (self.d, self.b)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.d == other.d and self.b == other.b


def _as_wavevector(m, d):
    if np.isscalar(m):
        m = (m,)
    m = tuple(int(c) for c in m)
    if len(m) != d:
        raise ValueError("wavevector must have %d components" % d)
    return m


class PeriodicPotential:
    """Finite trigonometric sum V(x) = sum_k a_k trig(2*pi*m_k.x/b + phi_k).

    Each term is (amplitude, kind, wavevector, phase) with kind "cos" or
    "sin" and an integer wavevector.  Fourier coefficients on the lattice are
    exact: the term a*cos(2*pi*m.x/b + phi) contributes (a/2)*e^{i*phi} at +m
    and the conjugate at -m, and similarly for sine.
    """

    def __init__(self, lattice, terms):
        self.lattice = lattice
        norm = []
        for amp, kind, m, phase in terms:
            if kind not in ("cos", "sin"):
                raise ValueError("term kind must be 'cos' or 'sin'")
            norm.append((float(amp), kind, _as_wavevector(m, lattice.d), float(phase)))
        self.terms = norm

    def __call__(self, *xs):
        if len(xs) != self.lattice.d:
            raise ValueError("expected %d coordinate arrays" % self.lattice.d)
        xs = [np.asarray(x, dtype=float) for x in xs]
        out = 0.0
        k0 = self.lattice.reciprocal
        for amp, kind, m, phase in self.terms:
            theta = phase
            for mi, xi in zip(m, xs):
                theta = theta + k0 * mi * xi
            f = np.cos(theta) if kind == "cos" else np.sin(theta)
            out = out + amp * f
        return out

    def fourier_coefficients(self):
        """Exact Fourier coefficients as a dict mapping integer tuples to complex."""
        coeffs = {}
        for amp, kind, m, phase in self.terms:
            if kind == "cos":
                cplus = 0.5 * amp * np.exp(1j * phase)
            else:
                cplus = -0.5j * amp * np.exp(1j * phase)
            mneg = tuple(-c for c in m)
            coeffs[m] = coeffs.get(m, 0.0) + cplus
            coeffs[mneg] = coeffs.get(mneg, 0.0) + np.conj(cplus)
        return coeffs

    def centred(self):
        """This potential translated to an inversion centre, or None when it has none.

        With y = (2 pi/b) c, V is even about c exactly when every coefficient
        of V(c + .), Vhat(m) e^{i m.y}, is real: arg Vhat(m) + m.y in pi Z for
        every wavevector m of the support.  A maximal linearly independent
        set B of support wavevectors (one of each +-m pair), completed by unit
        vectors whose condition is y_a in pi Z (which loses no centre, since
        the directions B leaves free can be shifted at will), fixes y modulo
        2 pi up to 2^d |det B| candidates y = B^{-1}(theta + pi k).  Each is
        tested against every coefficient, to eigcore.SYMMETRY_TOL relative to
        the largest; the first that passes is taken.  The result is a sum of
        "cos" terms with phase 0 and signed amplitudes, so its
        fourier_coefficients() are exactly real, and its attribute centre
        holds c: it equals V(c + x).  A potential without terms centres at 0.
        """
        d = self.lattice.d
        coeffs = self.fourier_coefficients()
        peak = max((abs(c) for c in coeffs.values()), default=0.0)
        tol = eigcore.SYMMETRY_TOL * peak
        # one wavevector of each +-m pair, the one whose first nonzero entry
        # is positive, shortest first so that det B stays small
        support = sorted((m for m in coeffs if m > (0,) * d and abs(coeffs[m]) > tol),
                         key=lambda m: (np.abs(m).sum(), m))
        units = [tuple(e) for e in np.eye(d, dtype=int)]
        basis, theta = [], []
        for m, phase in [(m, -np.angle(coeffs[m])) for m in support] + [(e, 0.0) for e in units]:
            if np.linalg.matrix_rank(np.array(basis + [m])) > len(basis):
                basis.append(m)
                theta.append(phase % np.pi)
        B = np.array(basis, dtype=float)
        det = int(round(abs(np.linalg.det(B))))
        k = np.array(list(itertools.product(range(2 * det), repeat=d)), dtype=float)
        y = np.linalg.solve(B, (np.array(theta)[None, :] + np.pi * k).T).T
        y -= 2.0 * np.pi * np.round(y / (2.0 * np.pi))
        ms = np.array(list(coeffs), dtype=float).reshape(-1, d)
        shifted = np.array(list(coeffs.values()), dtype=complex) * np.exp(1j * (y @ ms.T))
        even = np.all(np.abs(shifted.imag) <= tol, axis=1)
        if not np.any(even):
            return None
        i = int(np.argmax(even))
        real = dict(zip(coeffs, shifted[i].real))
        terms = [(real[m] if m == (0,) * d else 2.0 * real[m], "cos", m, 0.0)
                 for m in sorted(coeffs) if m >= (0,) * d]
        out = PeriodicPotential(self.lattice, terms)
        out.centre = tuple(float(c) for c in y[i] / self.lattice.reciprocal)
        return out


class Perturbation:
    """Localized perturbation W(x) = sum_k c_k prod_i (x_i + s_i)^{p_i} e^{-|x - x0|^2/sigma^2}.

    Terms are dicts with keys coefficient, factors (list of (shift, power) per
    axis), center, sigma.
    """

    def __init__(self, lattice, terms):
        self.lattice = lattice
        d = lattice.d
        norm = []
        for t in terms:
            coeff = float(t["coefficient"])
            factors = [(float(s), int(p)) for s, p in t["factors"]]
            if len(factors) != d:
                raise ValueError("need one (shift, power) factor per axis")
            if any(p < 0 for _, p in factors):
                raise ValueError("factor powers must be nonnegative")
            center = t.get("center", (0.0,) * d)
            if np.isscalar(center):
                center = (center,)
            center = tuple(float(c) for c in center)
            if len(center) != d:
                raise ValueError("center must have %d components" % d)
            sigma = float(t.get("sigma", 1.0))
            if not (sigma > 0):
                raise ValueError("sigma must be positive")
            norm.append((coeff, factors, center, sigma))
        self.terms = norm

    def __call__(self, *xs):
        if len(xs) != self.lattice.d:
            raise ValueError("expected %d coordinate arrays" % self.lattice.d)
        xs = [np.asarray(x, dtype=float) for x in xs]
        out = 0.0
        for coeff, factors, center, sigma in self.terms:
            r2 = 0.0
            poly = 1.0
            for (s, p), z, xi in zip(factors, center, xs):
                r2 = r2 + (xi - z) ** 2
                if p:
                    poly = poly * (xi + s) ** p
            out = out + coeff * poly * np.exp(-r2 / sigma**2)
        return out


def cell_points(span, grid):
    """The grid sample points along one axis of the cell centered at the
    origin: x_p = -span/2 + p * span/grid, p = 0 .. grid-1."""
    return -0.5 * span + span * np.arange(grid) / grid


def fourier_sample(func, d, span, grid):
    """FFT Fourier coefficients of func periodized over a cube of side span.

    Samples on a uniform grid offset so the cell is centered at the origin,
    enforces Hermitian symmetry exactly, and returns (data, edge_ratio) where
    edge_ratio is the largest Nyquist-shell magnitude relative to the overall
    maximum (an aliasing estimate).
    """
    pts = [cell_points(span, grid)] * d
    if d == 1:
        vals = np.asarray(func(pts[0]), dtype=float)
    else:
        X, Y = np.meshgrid(pts[0], pts[1], indexing="ij")
        vals = np.asarray(func(X, Y), dtype=float)
    data = np.fft.fftn(vals) / grid**d
    # undo the half-cell sample offset: multiply mode m by (-1)^(sum m_i)
    mint = np.rint(np.fft.fftfreq(grid) * grid).astype(int)
    sign = np.where(mint % 2 == 0, 1.0, -1.0)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = grid
        data = data * sign.reshape(shape)
    # enforce conj(data[-m]) == data[m] exactly
    rev = (-np.arange(grid)) % grid
    mirror = data[np.ix_(*[rev] * d)] if d > 1 else data[rev]
    data = 0.5 * (data + np.conj(mirror))
    maxall = np.max(np.abs(data))
    if maxall == 0.0:
        return data, 0.0
    nyq = grid // 2
    edge = 0.0
    for ax in range(d):
        sl = [slice(None)] * d
        sl[ax] = nyq
        edge = max(edge, np.max(np.abs(data[tuple(sl)])))
    return data, edge / maxall


def perturbation_supercell_coefficients(W, L, grid):
    """Fourier coefficients of W periodized over the supercell (-L*b/2, L*b/2]^d,
    as fourier_sample's (data, edge_ratio): data[m % grid] is the
    coefficient of e^{2*pi*i*m.x/(L*b)} for integer m.

    grid must be a power of two with grid >= 8*L.
    Raises ResolutionError when the relative aliasing estimate exceeds 1e-8,
    i.e. the grid cannot resolve W over this supercell.
    """
    lat = W.lattice
    if not (int(L) == L and L >= 1):
        raise ValueError("supercell side L must be a positive integer")
    L = int(L)
    grid = int(grid)
    if grid & (grid - 1) or grid < 8 * L:
        raise ValueError("grid must be a power of two with grid >= 8*L")
    data, edge_ratio = fourier_sample(W, lat.d, L * lat.b, grid)
    if edge_ratio > ALIASING_TOL:
        raise ResolutionError(
            "aliasing estimate %.3e exceeds %.0e: grid %d too coarse for L=%d"
            % (edge_ratio, ALIASING_TOL, grid, L)
        )
    return data, edge_ratio
