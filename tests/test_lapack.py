"""gapeig.lapack against the scipy.linalg calls it stands in for: the same
LAPACK routine with the same arguments, so equal results bit for bit, the
same errors, and one extension module whichever of the two loads it first."""

import importlib.util
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import eigcore, lapack


def _symmetric(rng, n, complex_=False):
    X = rng.standard_normal((n, n))
    if complex_:
        X = X + 1j * rng.standard_normal((n, n))
    return 0.5 * (X + X.conj().T)


def _pencil(rng, n, complex_=False):
    C = _symmetric(rng, n, complex_)
    return _symmetric(rng, n, complex_), C @ C.conj().T + n * np.eye(n)


def _band(rng, n):
    """A diagonally dominant tridiagonal matrix in upper band storage."""
    ab = np.zeros((2, n))
    ab[0, 1:] = rng.uniform(-0.5, 0.5, n - 1)
    ab[1] = 2.0 + rng.random(n)
    return ab


def test_banded_cholesky_and_solve_match_scipy():
    rng = np.random.default_rng(1)
    ab = _band(rng, 40)
    c = lapack.cholesky_banded(ab)
    assert np.array_equal(c, sla.cholesky_banded(ab))
    for b in (rng.standard_normal(40), rng.standard_normal((40, 3)),
              np.asfortranarray(rng.standard_normal((40, 3)))):
        assert np.array_equal(lapack.cho_solve_banded(c, b), sla.cho_solve_banded((c, False), b))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_generalized_eigh_matches_scipy(complex_):
    rng = np.random.default_rng(4)
    A, B = _pencil(rng, 25, complex_)
    for with_vectors in (True, False):
        for by_index in (None, (0, 3), (7, 12)):
            w, V = lapack.eigh_generalized(A, B, with_vectors, by_index)
            want = sla.eigh(A, B, subset_by_index=by_index, eigvals_only=not with_vectors)
            if with_vectors:
                assert np.array_equal(w, want[0]) and np.array_equal(V, want[1])
            else:
                assert np.array_equal(w, want) and V is None


def test_generalized_window_is_open():
    # a generalized dense pencil is windowed from its whole spectrum, which
    # drops the eigenvalues at both ends of the open window
    A, B = np.diag([1.0, 2.0, 3.0]), np.eye(3)
    res = eigcore.solve_window(eigcore.SymmetricPencil(A, B), 1.0, 3.0, with_vectors=False)
    assert np.array_equal(res.eigenvalues, [2.0])


def test_empty_inputs_give_empty_results_as_scipy():
    # LAPACK refuses n = 0, which scipy answers itself: an empty pencil
    for with_vectors in (True, False):
        w, V = lapack.eigh_generalized(np.zeros((0, 0)), np.zeros((0, 0)), with_vectors)
        assert w.shape == (0,) and (V is None if not with_vectors else V.shape == (0, 0))


def test_tridiagonal_routines_are_scipys():
    # the raw routines are the extension's own objects, the ones scipy.linalg.lapack exports
    for name in ("dgttrf", "dgttrs", "dtbtrs", "dgeqrf", "dgeqrf_lwork"):
        assert getattr(lapack, name) is getattr(sla.lapack, name)
    with pytest.raises(AttributeError):
        lapack._private_name


def test_not_positive_definite_and_nan_raise():
    rng = np.random.default_rng(5)
    ab = _band(rng, 10)
    ab[1, 4] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lapack.cholesky_banded(ab)
    A, B = _pencil(rng, 6)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lapack.eigh_generalized(A, -B, False)
    bad = np.eye(6)
    bad[2, 3] = np.nan
    c = lapack.cholesky_banded(_band(rng, 6))
    for call in (lambda: lapack.cholesky_banded(bad[2:4]),
                 lambda: lapack.cho_solve_banded(c, bad),
                 lambda: lapack.eigh_generalized(bad, np.eye(6), True)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()


def test_missing_extension_names_the_path(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_loader("scipy", loader=None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match=str(tmp_path)):
        lapack.dgttrf


@pytest.mark.parametrize("first", ["gapeig", "scipy"])
def test_one_extension_in_either_import_order(first):
    # in a fresh process: whichever loads the extension first, the other
    # reuses it, and scipy.linalg still works
    ours = ["from gapeig import lapack", "f = lapack.dgttrf"]
    if first == "gapeig":
        ours.append("assert 'scipy.linalg' not in sys.modules")
    theirs = ["import scipy.linalg"]
    script = "\n".join(
        ["import sys", "import numpy as np"]
        + (ours + theirs if first == "gapeig" else theirs + ours)
        + ["assert scipy.linalg.lapack.dgttrf is f",
           "assert sys.modules['scipy.linalg._flapack'] is scipy.linalg.lapack._flapack",
           "w = scipy.linalg.eigh(np.diag([2.0, 1.0]), eigvals_only=True)",
           "assert list(w) == [1.0, 2.0]",
           "w = lapack.eigh_generalized(np.diag([2.0, 1.0]), np.eye(2), False)[0]",
           "assert list(w) == [1.0, 2.0]"])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_loading_imports_no_scipy_package():
    script = ("import sys\nfrom gapeig import lapack\nlapack.dgttrf\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.linalg._flapack']"
