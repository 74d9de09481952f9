"""LAPACK through scipy's compiled wrappers, without importing a scipy package.

scipy ships LAPACK as one f2py extension, scipy.linalg._flapack, which
needs numpy alone.  Importing scipy.linalg to reach it costs a P1 process
most of its start-up (about 0.25 s and 28 MB, in scipy's array-API layer),
so this module loads the extension from its file instead, on first use:
the file is found from importlib's spec of scipy, which does not import
scipy, and the module is registered under its own name in sys.modules.
Whichever of this module and scipy.linalg loads it first, the other reuses
that entry, so both call the same routine objects.

Only what numpy.linalg lacks goes through here; gapeig takes everything
else (dense svd, eigh, Cholesky, solve) from numpy.  The compiled routines
are attributes of this module (lapack.dgttrf, PEP 562).  The functions
below cover the banded Cholesky factorization and solve and the generalized
Hermitian eigenproblem, all of it or an index subset: each calls the
routine scipy.linalg calls, with the arguments it passes, and keeps its
checks (finite inputs, as check_finite=True does, and LAPACK's info as
LinAlgError or ValueError).  They take double precision real input, or
complex where stated.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_EXTENSION = "scipy.linalg._flapack"
# scipy's bound on LAPACK's 32-bit integer sizes
_INT32_MAX = np.iinfo(np.int32).max


def _flapack():
    """The extension module, loaded from its file the first time."""
    module = sys.modules.get(_EXTENSION)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    locations = [] if scipy is None else scipy.submodule_search_locations or []
    stems = [os.path.join(loc, "linalg", "_flapack") for loc in locations]
    for stem in stems:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = stem + suffix
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_EXTENSION, path)
                spec = importlib.util.spec_from_file_location(_EXTENSION, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[_EXTENSION] = module
                return module
    raise ImportError("scipy's LAPACK extension not found: searched %s with suffixes %s"
                      % (stems or "no scipy installation", importlib.machinery.EXTENSION_SUFFIXES),
                      name=_EXTENSION)


def __getattr__(name):
    # lapack.dgttrf and the other compiled routines; private names are not forwarded
    if name.startswith("_"):
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(_flapack(), name)


def _lwork(query, *args, **kwargs):
    """The workspace sizes a *_lwork query returns, as integers."""
    *sizes, info = query(*args, **kwargs)
    if info != 0:
        raise ValueError("internal work array size computation failed: %d" % info)
    sizes = [int(s.real) for s in sizes]
    if not all(0 <= s <= _INT32_MAX for s in sizes):
        raise ValueError("too large work array required for 32-bit LAPACK")
    return sizes


def _check(info, routine, singular):
    if info > 0:
        raise np.linalg.LinAlgError(singular % info)
    if info < 0:
        raise ValueError("illegal value in argument %d of internal %s" % (-info, routine))


def cholesky_banded(ab):
    """Upper Cholesky factor of the symmetric band matrix ab in upper band
    storage (dpbtrf); LinAlgError when it is not positive definite."""
    c, info = _flapack().dpbtrf(np.asarray_chkfinite(ab), lower=False, overwrite_ab=False)
    _check(info, "pbtrf", "%d-th leading minor not positive definite")
    return c


def cho_solve_banded(cb, b):
    """Solution x of A x = b from the upper band Cholesky factor cb of A (dpbtrs)."""
    cb, b = np.asarray_chkfinite(cb), np.asarray_chkfinite(b)
    if cb.shape[-1] != b.shape[0]:
        raise ValueError("shapes of cb and b are not compatible.")
    x, info = _flapack().dpbtrs(cb, b, lower=False, overwrite_b=False)
    _check(info, "pbtrs", "%dth leading minor not positive definite")
    return x


def eigh_generalized(a, b, with_vectors, by_index=None):
    """Eigenvalues, ascending, and (with_vectors) b-orthonormal eigenvectors
    of the Hermitian pencil (a, b), b positive definite, from the lower
    triangles; real or complex.  All of them (*gvd), or those with the
    0-based indices by_index = (first, last) (*gvx).  Returns (w, v), v None
    without vectors."""
    a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape:
        raise ValueError("expected square a and b of one shape")
    n = a.shape[0]
    if n == 0:
        # the drivers refuse n = 0
        return np.zeros(0), np.zeros((0, 0), np.result_type(a, b, float)) if with_vectors else None
    prefix = "zhe" if np.iscomplexobj(a) or np.iscomplexobj(b) else "dsy"
    flapack = _flapack()
    args = {"overwrite_a": False, "overwrite_b": False, "itype": 1, "uplo": "L",
            "jobz": "V" if with_vectors else "N"}
    if by_index is None:
        driver = prefix + "gvd"
    else:
        lo, hi = (int(x) for x in by_index)
        if not 0 <= lo <= hi < n:
            raise ValueError("eigenvalue indices %s outside [0, %d]" % ((lo, hi), n - 1))
        driver = prefix + "gvx"
        (lwork,) = _lwork(getattr(flapack, driver + "_lwork"), n, uplo="L")
        args.update(range="I", il=lo + 1, iu=hi + 1, lwork=lwork)
    w, v, *other, info = getattr(flapack, driver)(a=a, b=b, **args)
    if info > n:
        raise np.linalg.LinAlgError("the leading minor of order %d of B is not positive definite"
                                    % (info - n))
    if info != 0:
        raise np.linalg.LinAlgError("%s failed: info %d" % (driver, info))
    # the subset driver returns the m values found first
    m = other[0] if other else n
    return w[:m], v[:, :m] if with_vectors else None
