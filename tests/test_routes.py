"""The contract every windowed route keeps: it returns eigcore's windowed
result, on its own window, with ascending values strictly inside it and,
where it returns vectors, residuals within the bound it reports."""

import types

import numpy as np
import pytest

from gapeig import augment, eigcore, fem1d, supercell

WIN_1D = (-1.1442549263927626, -0.6450826051490102)
WIN_2D = (-0.361330513742, -0.005748116668)


def _augment(p):
    P = augment.build_projector(p.V1d, J=1, n_c=40, M_q=16)
    aug = augment.augmented_space(P, fem1d.symmetric_mesh(p.lat1d, 40, 3, 0.5))
    return augment.augmented_spectrum(p.V1d, p.W1d, aug, WIN_1D)


# route -> (its call on the problem p, the window it solves on, its method)
ROUTES = {
    "galerkin": (
        lambda p: fem1d.galerkin_spectrum(p.V1d, p.W1d, fem1d.symmetric_mesh(p.lat1d, 50, 5, 0.5),
                                          WIN_1D),
        WIN_1D, "galerkin"),
    "dislocation": (
        lambda p: fem1d.dislocation_spectrum(p.V1d, "halfline+", 0.5, WIN_1D, n_periods=20,
                                             n_c=50),
        WIN_1D, "dislocation"),
    "augment": (_augment, WIN_1D, "augmented"),
    "supercell-fibers": (
        lambda p: supercell.supercell_spectrum(p.V1d, p.W1d, 10, 160, WIN_1D),
        WIN_1D, "fibers"),
    "supercell-dense": (
        lambda p: supercell.supercell_spectrum(p.V1d, p.W1d, 10, 160, WIN_1D, method="dense"),
        WIN_1D, "dense"),
    "supercell-iterative": (
        lambda p: supercell.supercell_spectrum(p.V2d, p.W2d, 2, 8, WIN_2D, method="iterative"),
        WIN_2D, "shift-invert"),
    "supercell-mismatched": (
        lambda p: supercell.mismatched_supercell_spectrum(p.V1d, p.W1d, 10, 0.5, 168, WIN_1D),
        WIN_1D, "dense-mismatched"),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_route_returns_windowed_result(V1d, W1d, V2d, W2d, lat1d, monkeypatch, route):
    ops = []
    solve = eigcore.solve_window

    def spy(op, *args, **kwargs):
        ops.append(op)
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(eigcore, "solve_window", spy)
    call, window, method = ROUTES[route]
    res = call(types.SimpleNamespace(V1d=V1d, W1d=W1d, V2d=V2d, W2d=W2d, lat1d=lat1d))
    assert type(res) is eigcore.EigResult
    assert res.window == window
    assert res.diagnostics["method"] == method
    w = res.eigenvalues
    assert len(w) > 0
    assert np.all(np.diff(w) > 0.0)
    assert np.all((w > window[0]) & (w < window[1]))
    assert len(ops) == 1
    # the P1 routes always return their eigenvectors
    if route in ("galerkin", "dislocation", "augment"):
        assert res.eigenvectors is not None
    if res.eigenvectors is not None:
        op, V = ops[0], res.eigenvectors
        MV = V if op.mass is None else op.mass(V)
        resid = np.linalg.norm(op.apply(V) - MV * w, axis=0)
        bound = res.diagnostics["residual_bound"]
        assert bound == res.residual_bound
        # recomputing A v - w M v adds roundoff of its own, eps ||A|| ||v||
        # (||A||_1 bounds ||A||_2 for a symmetric A); the bound is itself at
        # roundoff level, and the excess measured is at most 0.1 of that
        roundoff = np.finfo(float).eps * np.linalg.norm(op.apply(np.eye(op.n)), 1)
        assert np.all(resid <= bound + roundoff * np.linalg.norm(V, axis=0)), (resid, bound)
