"""Potential and perturbation models against independent quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapeig import model
from gapeig.errors import ResolutionError

# Fourier coefficients of -(x+2)^2 exp(-x^2) periodized over 6 cells of b=2pi,
# from adaptive quadrature of the defining integrals (scipy.integrate.quad,
# grid-independent); frozen here so the FFT path is checked against them.
W_COEFF_ORACLE = {
    0: -0.21157109383040865 + 0.0j,
    3: -0.19599219579610447 + 0.04416725539067142j,
    7: -0.1391641549269895 + 0.07806203014268523j,
}
W_MEAN_SQUARE_ORACLE = 0.7376276538672324


def test_lattice_reciprocal(lat1d, lat2d):
    assert lat1d.reciprocal == pytest.approx(1.0)
    assert lat2d.reciprocal == pytest.approx(1.0)
    assert model.Lattice(1, 2.0).reciprocal == pytest.approx(np.pi)


def test_lattice_rejects_bad_dimension():
    with pytest.raises(ValueError):
        model.Lattice(3, 1.0)
    with pytest.raises(ValueError):
        model.Lattice(1, -1.0)


def test_periodic_potential_values(V1d):
    x = np.array([0.0, 0.7, 2.9, -4.1])
    expected = np.cos(x) + 3.0 * np.sin(2.0 * x + 1.0)
    assert np.allclose(V1d(x), expected, atol=1e-14)


def test_periodic_potential_2d_values(V2d):
    x = np.array([0.3, -1.2])
    y = np.array([0.9, 2.2])
    expected = np.cos(x) + 3.0 * np.sin(2.0 * (x + y) + 1.0)
    assert np.allclose(V2d(x, y), expected, atol=1e-14)


@given(st.floats(-50, 50), st.integers(-3, 3))
@settings(max_examples=50, deadline=None)
def test_periodicity(V1d, x, k):
    assert V1d(x + 2 * np.pi * k) == pytest.approx(V1d(x), abs=1e-9)


def test_fourier_coefficients_analytic(V1d):
    # cos(x) -> 1/2 at m = +-1; 3 sin(2x+1) -> -1.5i e^{i} at m=2, conjugate at -2
    c = V1d.fourier_coefficients()
    assert c[(1,)] == pytest.approx(0.5)
    assert c[(-1,)] == pytest.approx(0.5)
    want = -0.5j * 3.0 * np.exp(1.0j)
    assert c[(2,)] == pytest.approx(want)
    assert c[(-2,)] == pytest.approx(np.conj(want))
    assert set(c) == {(1,), (-1,), (2,), (-2,)}


def test_fourier_coefficients_hermitian_2d(V2d):
    c = V2d.fourier_coefficients()
    for m, v in c.items():
        mm = tuple(-x for x in m)
        assert c[mm] == pytest.approx(np.conj(v))


def test_potential_real_from_coefficients(V1d):
    # resumming the coefficients reproduces the real potential
    c = V1d.fourier_coefficients()
    x = np.linspace(-2.0, 9.0, 23)
    tot = np.zeros_like(x, dtype=complex)
    for (m,), v in c.items():
        tot += v * np.exp(1.0j * m * x)
    assert np.max(np.abs(tot.imag)) < 1e-14
    assert np.allclose(tot.real, V1d(x), atol=1e-12)


def test_perturbation_values(W1d, W2d):
    x = np.array([0.0, 1.5, -2.0])
    assert np.allclose(W1d(x), -((x + 2.0) ** 2) * np.exp(-(x**2)), atol=1e-15)
    y = np.array([0.5, -0.3, 0.25])
    want = -((x + 2.0) ** 2) * (2.0 * y - 1.0) ** 2 * np.exp(-(x**2) - y**2)
    assert np.allclose(W2d(x, y), want, atol=1e-13)


def test_perturbation_validation(lat1d):
    with pytest.raises(ValueError):
        model.Perturbation(lat1d, [{"coefficient": 1.0, "factors": [(0.0, -1)]}])
    with pytest.raises(ValueError):
        model.Perturbation(lat1d, [{"coefficient": 1.0, "factors": [(0.0, 1)], "sigma": 0.0}])
    with pytest.raises(ValueError):
        model.Perturbation(lat1d, [{"coefficient": 1.0, "factors": [(0.0, 1), (0.0, 1)]}])


def test_supercell_coefficients_vs_quadrature(W1d):
    data, _ = model.perturbation_supercell_coefficients(W1d, 6, grid=256)
    for m, want in W_COEFF_ORACLE.items():
        assert data[m % 256] == pytest.approx(want, abs=1e-12)
        assert data[-m % 256] == pytest.approx(np.conj(want), abs=1e-12)
    assert np.sum(np.abs(data) ** 2) == pytest.approx(W_MEAN_SQUARE_ORACLE, abs=1e-12)


def test_supercell_coefficients_hermitian_table(W1d):
    data, _ = model.perturbation_supercell_coefficients(W1d, 6, grid=256)
    # real input: full table closes under conjugation, c(-m) = conj(c(m))
    n = 256
    for m in range(-n // 2 + 1, n // 2):
        assert data[-m % n] == pytest.approx(np.conj(data[m % n]), abs=1e-15)


def test_supercell_coefficients_grid_refinement(W1d):
    a, _ = model.perturbation_supercell_coefficients(W1d, 6, grid=256)
    b, _ = model.perturbation_supercell_coefficients(W1d, 6, grid=512)
    for m in (0, 1, 5, 11):
        assert a[m % 256] == pytest.approx(b[m % 512], abs=1e-13)


def test_aliasing_refusal(W1d, lat1d):
    # a coarse grid cannot resolve the Gaussian tail spectrum
    with pytest.raises(ResolutionError):
        model.perturbation_supercell_coefficients(W1d, 6, grid=64)
    # a wide, smooth perturbation passes at the same grid
    mild = model.Perturbation(
        lat1d, [{"coefficient": 1.0, "factors": [(0.0, 0)], "center": (0.0,), "sigma": 3.0}]
    )
    _, edge_ratio = model.perturbation_supercell_coefficients(mild, 6, grid=64)
    assert edge_ratio <= 1e-8


def test_supercell_coefficients_2d(W2d):
    # grid 64 aliases the Gaussian tail spectrum and is refused; 128 resolves it
    with pytest.raises(ResolutionError):
        model.perturbation_supercell_coefficients(W2d, 4, grid=64)
    data, _ = model.perturbation_supercell_coefficients(W2d, 4, grid=128)
    span = 4 * 2 * np.pi
    # spot-check m = (0,0) against the cell mean on a fine grid
    g = np.linspace(-span / 2, span / 2, 2049)[:-1]
    xx, yy = np.meshgrid(g, g, indexing="ij")
    mean = np.mean(W2d(xx, yy))
    assert data[0, 0] == pytest.approx(mean, abs=1e-9)


def test_centred_2d_is_even_with_real_coefficients(V2d):
    # cos x + 3 sin(2x + 2y + 1) is even about c = (0, (pi/2 - 1)/2)
    Vc = V2d.centred()
    c = np.asarray(Vc.centre)
    x = np.array([0.0, 0.3, -1.7, 2.9, 5.5])
    y = np.array([0.0, 2.2, 0.4, -3.1, 1.25])
    assert np.max(np.abs(V2d(c[0] + x, c[1] + y) - V2d(c[0] - x, c[1] - y))) <= 1e-12
    assert np.max(np.abs(Vc(x, y) - V2d(c[0] + x, c[1] + y))) <= 1e-12
    coeffs = Vc.fourier_coefficients()
    assert all(v.imag == 0.0 for v in coeffs.values())
    assert set(coeffs) == set(V2d.fourier_coefficients())


def test_centred_none_without_inversion_centre(V1d, lat2d):
    # cos x is even about 0 and pi, 3 sin(2x + 1) about (pi/2 - 1)/2 + k pi/2
    assert V1d.centred() is None
    # each phase alone can be undone, the three together cannot
    tilted = model.PeriodicPotential(
        lat2d, [(1.0, "cos", (1, 0), 0.3), (1.0, "cos", (0, 1), 0.5), (1.0, "cos", (1, 1), 0.1)]
    )
    assert tilted.centred() is None


def test_centred_empty_potential_at_origin(lat1d, lat2d):
    for lat in (lat1d, lat2d):
        Vc = model.PeriodicPotential(lat, []).centred()
        assert Vc.centre == (0.0,) * lat.d
        assert Vc.terms == []
