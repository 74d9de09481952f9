"""Band structure and gap detection: exact free-particle checks, symmetry,
refinement stability, and frozen reference windows."""

import numpy as np
import pytest

from gapeig import bloch, model, supercell
from gapeig.errors import BasisTooLarge, NoGap, QGridAsymmetric

# 1D benchmark gap at M_pw=32, M_q=64, J=1; frozen from this package and
# cross-checked against a second-order finite difference discretization of
# the fibers (agreement ~1e-5 at 2048 FD points, consistent with FD order)
GAP1D_ALPHA = -1.1442549263927626
GAP1D_BETA = -0.6450826051490102

# 2D benchmark gap at M_pw=9, M_q=32, J=1 (bands 1 and 2 merge into the first
# component); same FD cross-check protocol
GAP2D_ALPHA = -0.36133051374212755
GAP2D_BETA = -0.00574811666837558


@pytest.fixture(scope="module")
def free1d():
    return model.PeriodicPotential(model.Lattice(1, 2 * np.pi), [])


def test_free_particle_fiber_exact(free1d):
    # V=0: the fiber matrix is diagonal with entries |q + m|^2
    q = np.array([0.3])
    H = bloch.assemble_fiber(free1d, q, 8).A
    offs = bloch.fiber_offsets(1, 8)
    want = np.diag((q[0] + offs[:, 0]) ** 2)
    assert np.max(np.abs(H - want)) <= 1e-12


def test_free_particle_bands_exact(free1d):
    q = np.array([0.17])
    w = bloch.fiber_bands(free1d, q, 12, 5).eigenvalues
    offs = np.arange(-12, 13)
    want = np.sort((q[0] + offs) ** 2)[:5]
    assert np.max(np.abs(w - want)) <= 1e-12


def test_free_particle_bands_exact_2d():
    free = model.PeriodicPotential(model.Lattice(2, 2 * np.pi), [])
    q = np.array([0.11, -0.23])
    w = bloch.fiber_bands(free, q, 4, 6).eigenvalues
    g = np.arange(-4, 5)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    want = np.sort(((q[0] + gx) ** 2 + (q[1] + gy) ** 2).ravel())[:6]
    assert np.max(np.abs(w - want)) <= 1e-12


def test_fiber_hermitian_exact(V1d, V2d):
    H = bloch.assemble_fiber(V1d, np.array([0.21]), 16).A
    assert np.array_equal(H, H.conj().T)
    H2 = bloch.assemble_fiber(V2d, np.array([0.21, -0.4]), 5).A
    assert np.array_equal(H2, H2.conj().T)


def test_fiber_real_only_for_centred_potential(V2d):
    # V2d's translate to its inversion centre has real coefficients, so its
    # fibers are real symmetric with V2d's fiber spectrum; V2d itself stays complex
    q = np.array([0.21, -0.4])
    real = bloch.assemble_fiber(V2d.centred(), q, 4)
    cplx = bloch.assemble_fiber(V2d, q, 4)
    assert real.A.dtype == np.float64
    assert cplx.A.dtype == np.complex128
    assert np.max(np.abs(np.linalg.eigvalsh(real.A) - np.linalg.eigvalsh(cplx.A))) <= 1e-12


def test_fiber_entries(V1d):
    # off-diagonal entries are the potential coefficients at the offset difference
    H = bloch.assemble_fiber(V1d, np.array([0.1]), 4).A
    offs = bloch.fiber_offsets(1, 4)
    c = V1d.fourier_coefficients()
    i = int(np.flatnonzero(offs[:, 0] == 2)[0])
    j = int(np.flatnonzero(offs[:, 0] == 0)[0])
    assert H[i, j] == pytest.approx(c[(2,)])
    assert H[j, i] == pytest.approx(c[(-2,)])


def test_midpoint_grid_symmetric(lat1d):
    for M_q in (6, 8, 12, 64):
        flat = bloch.midpoint_grid(lat1d, M_q)
        # exact mirror image: the band sweep relies on it to solve half the grid
        assert np.array_equal(flat[::-1], -flat)
        assert np.all(np.diff(flat) > 0)
        assert not np.any(np.isclose(flat, 0.0))
        assert np.max(np.abs(flat)) < 0.5 * lat1d.reciprocal


def test_midpoint_grid_rejects_odd(lat1d):
    with pytest.raises(QGridAsymmetric):
        bloch.midpoint_grid(lat1d, 7)


def test_fiber_pm_q_symmetry(V1d, V2d):
    # the sweep solves half the grid and mirrors it; every sampled band must
    # match direct fiber solves at q and at -q (eps(-q) = eps(q), real V)
    for V, M_pw, M_q in ((V1d, 12, 6), (V2d, 3, 4)):
        bs = bloch.band_structure(V, M_pw=M_pw, M_q=M_q)
        assert np.array_equal(bs.qpoints[::-1], -bs.qpoints)
        for q, eps in zip(bs.qpoints, bs.bands):
            for s in (1.0, -1.0):
                direct = bloch.fiber_bands(V, s * q, M_pw, bs.J_max, with_vectors=False)
                assert np.max(np.abs(direct.eigenvalues - eps)) <= 1e-12


def test_mode_classes(V1d, V2d):
    # V1d's support {+-1, +-2} generates Z: one class per fiber; V2d's
    # {+-(1,0), +-(2,2)} generates a lattice of index 2 (V2d also has
    # period pi in y), so a fiber splits into two classes
    (rows,) = bloch.mode_classes(bloch.fiber_offsets(1, 32), bloch.coupling_steps(V1d))
    assert np.array_equal(rows, np.arange(65)[None, :])
    offs = bloch.fiber_offsets(2, 9)
    small, large = bloch.mode_classes(offs, bloch.coupling_steps(V2d))
    assert small.shape == (1, 171) and large.shape == (1, 190)
    # every class is the modes of one coset of that lattice: m_y even or odd
    assert np.all(offs[small[0], 1] % 2 == 0) and np.all(offs[large[0], 1] % 2 == 1)
    assert bloch.band_structure(V2d, M_pw=9, M_q=2).fiber_classes == [171, 190]
    # with opposite set, every class is closed under m -> -m
    for rows in bloch.mode_classes(offs, 3 * bloch.coupling_steps(V2d), opposite=True):
        for block in rows:
            assert sorted(map(tuple, -offs[block])) == sorted(map(tuple, offs[block]))


def test_band_structure_unsplit_2d_matches_fibers(lat2d):
    # a (0,1) term makes the support generate Z^2: one class per fiber, and
    # the batched sweep equals per-q fiber solves
    V = model.PeriodicPotential(
        lat2d, [(1.0, "cos", (1, 0), 0.0), (3.0, "sin", (2, 2), 1.0), (0.5, "cos", (0, 1), 0.4)]
    )
    bs = bloch.band_structure(V, M_pw=4, M_q=4)
    assert bs.fiber_classes == [81]
    for q, eps in zip(bs.qpoints, bs.bands):
        direct = bloch.fiber_bands(V, q, 4, bs.J_max, with_vectors=False)
        assert np.max(np.abs(direct.eigenvalues - eps)) <= 1e-12


def test_fiber_budget_refused_before_assembly(V2d, monkeypatch):
    # the default 2D fiber has 19^2 = 361 modes: a budget of 360 refuses it
    # before V's coupling matrix is formed, in the sweep and per fiber
    assert supercell.MAX_PLANEWAVES == bloch.MAX_PLANEWAVES
    monkeypatch.setattr(bloch, "MAX_PLANEWAVES", 360)
    zeros = np.zeros

    def no_square(shape, *args, **kwargs):
        assert np.ndim(shape) == 0 or len(shape) < 2 or shape[0] < 361, shape
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(bloch.np, "zeros", no_square)
    with pytest.raises(BasisTooLarge, match="361 planewaves exceed the budget of 360"):
        bloch.band_structure(V2d, M_q=2)
    with pytest.raises(BasisTooLarge):
        bloch.fiber_bands(V2d, np.zeros(2), 9, 4)
    monkeypatch.setattr(bloch, "MAX_PLANEWAVES", 361)
    monkeypatch.setattr(bloch.np, "zeros", zeros)
    assert bloch.band_structure(V2d, M_q=2).fiber_classes == [171, 190]


def test_band_structure_threads_agree(V1d, V2d, monkeypatch):
    # each chunk of quasimomenta is its own stack of eigvalsh calls, so
    # neither the chunk size nor the threads that spread the chunks change
    # a bit of the bands (complex 1D fibers, real centred 2D ones)
    for V, M_pw, M_q in ((V1d, 12, 16), (V2d, 4, 4)):
        want = bloch.band_structure(V, M_pw=M_pw, M_q=M_q).bands
        for chunk in (1, 2, 3, 4, 8, 16):
            monkeypatch.setattr(bloch, "SWEEP_CHUNK", chunk)
            for threads in (1, 2):
                got = bloch.band_structure(V, M_pw=M_pw, M_q=M_q, threads=threads).bands
                assert np.array_equal(got, want), (V.lattice.d, chunk, threads)


def test_gap_1d_reference(gap1d):
    assert gap1d.alpha == pytest.approx(GAP1D_ALPHA, abs=1e-12)
    assert gap1d.beta == pytest.approx(GAP1D_BETA, abs=1e-12)
    assert gap1d.gamma == pytest.approx(0.5 * (GAP1D_ALPHA + GAP1D_BETA), abs=1e-12)


def test_gap_1d_basis_refinement(V1d, gap1d):
    # planewave truncation is converged: doubling M_pw moves endpoints < 1e-8
    bs = bloch.band_structure(V1d, M_pw=16)
    g16 = bloch.find_gap(bs, 1)
    assert abs(g16.alpha - gap1d.alpha) <= 1e-8
    assert abs(g16.beta - gap1d.beta) <= 1e-8


def test_gap_1d_grid_refinement(V1d, gap1d):
    # doubling the quasimomentum grid moves endpoints by O((1/M_q)^2), the
    # midpoint-sampling error of a smooth band extremum
    bs = bloch.band_structure(V1d, M_q=128)
    g = bloch.find_gap(bs, 1)
    assert abs(g.alpha - gap1d.alpha) <= 2e-5
    assert abs(g.beta - gap1d.beta) <= 2e-5


def test_gap_2d_reference(V2d):
    bs = bloch.band_structure(V2d)
    gw = bloch.find_gap(bs, 1)
    assert gw.alpha == pytest.approx(GAP2D_ALPHA, abs=1e-12)
    assert gw.beta == pytest.approx(GAP2D_BETA, abs=1e-12)
    # the first component is the merged bands 1-2
    assert gw.info["component_bands"] == (1, 2)


def test_free_particle_no_gap(free1d):
    bs = bloch.band_structure(free1d)
    with pytest.raises(NoGap):
        bloch.find_gap(bs, 1)


def test_no_gap_when_component_exhausts_bands(V1d):
    bs = bloch.band_structure(V1d, J_max=2)
    # only two bands computed: the gap above component 2 is unresolvable
    with pytest.raises(NoGap):
        bloch.find_gap(bs, 2)


def test_gap_rejects_too_large_J(V1d):
    bs = bloch.band_structure(V1d, J_max=3)
    with pytest.raises(NoGap):
        bloch.find_gap(bs, 7)


def test_band_range_ordering(V1d):
    bs = bloch.band_structure(V1d)
    for j in range(1, bs.J_max):
        lo_j, hi_j = bs.band_range(j)
        lo_n, hi_n = bs.band_range(j + 1)
        assert lo_j <= lo_n and hi_j <= hi_n

