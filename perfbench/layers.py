"""Spans and counters recorded around the public functions of each gapeig module.

``Tracer.install`` replaces module attributes (and a few class attributes)
with wrappers for the duration of a ``with`` block, so calls between modules
go through the wrappers; the program itself is not changed.  Spans are kept
in memory as tuples and turned into per-layer metrics afterwards.  The
recorder keeps one span stack, so it assumes the traced code runs on one
thread (the CLI's fiber sweeps do unless ``threads`` is set above 1).
"""

import contextlib
import functools
import operator
import os
import time
import types

import numpy as np

from gapeig import augment, bloch, cli, eigcore, fem1d, model, supercell

# span name -> per-layer self-time metric.  Spans not listed here (the CLI
# entry point and runners) are glue; their self time is what the listed
# layers do not cover.
SELF_TIME = {
    "cli.load_config": "cli.load_config_s",
    "cli.build_problem": "cli.load_config_s",
    "cli.write_csv": "cli.write_s",
    "cli.write_json": "cli.write_s",
    "model.PeriodicPotential.__call__": "model.eval_s",
    "model.Perturbation.__call__": "model.eval_s",
    "model.fourier_sample": "model.fourier_sample_s",
    "model.perturbation_supercell_coefficients": "model.fourier_sample_s",
    "eigcore.SymmetricPencil.__init__": "eigcore.pencil_s",
    "eigcore.solve_window": "eigcore.solve_window_s",
    "eigcore.solve_lowest": "eigcore.solve_lowest_s",
    "bloch.band_structure": "bloch.band_structure_s",
    "bloch.fiber_bands": "bloch.band_structure_s",
    "bloch.assemble_fiber": "bloch.band_structure_s",
    "bloch.find_gap": "bloch.find_gap_s",
    "supercell.supercell_spectrum": "supercell.spectrum_s",
    "supercell.convergence_scan": "supercell.spectrum_s",
    "supercell.assemble_supercell": "supercell.assemble_s",
    "supercell.spla.eigsh": "supercell.eigsh_s",
    "supercell.spla.minres": "supercell.minres_s",
    "fem1d.galerkin_spectrum": "fem1d.galerkin_spectrum_s",
    "fem1d.assemble_galerkin": "fem1d.galerkin_spectrum_s",
    "fem1d.symmetric_mesh": "fem1d.galerkin_spectrum_s",
    "fem1d.dislocation_spectrum": "fem1d.dislocation_spectrum_s",
    "fem1d.classify_modes": "fem1d.classify_s",
    "fem1d.boundary_mass": "fem1d.classify_s",
    "fem1d.compact_mass": "fem1d.classify_s",
    "fem1d.interval_mass": "fem1d.classify_s",
    "augment.build_projector": "augment.build_projector_s",
    "augment.fem_fiber": "augment.build_projector_s",
    "augment.augmented_space": "augment.augmented_space_s",
    "augment.augmented_spectrum": "augment.augmented_spectrum_s",
    "augment.a2_estimate": "augment.a2_estimate_s",
}
SETUP_METRICS = ("cli.load_config_s",)
# counter -> how values from several calls combine
COUNTERS = {
    "eigcore.pencils": operator.add,
    "eigcore.dense_bytes": operator.add,
    "eigcore.solve_window_calls": operator.add,
    "eigcore.solve_window_dof": operator.add,
    "eigcore.window_returned": operator.add,
    "eigcore.solve_lowest_calls": operator.add,
    "eigcore.residual_max": max,
    "bloch.fibers": operator.add,
    "bloch.fiber_n": max,
    "supercell.n_planewaves": operator.add,
    "supercell.minres_calls": operator.add,
    "supercell.minres_iters": operator.add,
    "supercell.minres_nonconverged": operator.add,
    "fem1d.n_dof": operator.add,
    "augment.fem_fibers": operator.add,
    "augment.n_aug": operator.add,
    "model.eval_points": operator.add,
    "model.fourier_grid_points": operator.add,
    "cli.bytes_written": operator.add,
}


class Tracer:
    """In-memory span recorder.

    A span is (id, name, start, end, parent_id, run_id); parent_id is None
    for a root.  Counters are kept per run id.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.run_id = 0
        self._stack = []
        self._saved = []

    def begin_run(self):
        self.run_id += 1
        self.counters[self.run_id] = {}
        return self.run_id

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, t0, t1, parent, self.run_id)

    def count(self, name, value):
        c = self.counters.setdefault(self.run_id, {})
        c[name] = COUNTERS[name](c[name], value) if name in c else value

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self, out, args, kwargs)
            return out

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap the program's public functions for the duration of the block."""
        self._saved = []
        runners = dict(cli.RUNNERS)
        try:
            self._wrap_program(runners)
            yield self
        finally:
            cli.RUNNERS.update(runners)
            for owner, attr, value in reversed(self._saved):
                setattr(owner, attr, value)

    def _patch(self, owner, attr, name, counter=None):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))

    def _wrap_program(self, runners):
        patch = self._patch
        patch(cli, "main", "cli.main")
        for attr in ("load_config", "build_problem"):
            patch(cli, attr, "cli." + attr)
        for attr in ("write_csv", "write_json"):
            patch(cli, attr, "cli." + attr, _count_written)
        # RUNNERS holds the runner functions themselves, not their names.
        for method, fn in runners.items():
            cli.RUNNERS[method] = self.wrap("cli.run", fn)
        for cls in (model.PeriodicPotential, model.Perturbation):
            patch(cls, "__call__", "model.%s.__call__" % cls.__name__, _count_eval)
        patch(model, "fourier_sample", "model.fourier_sample", _count_fourier)
        patch(model, "perturbation_supercell_coefficients", "model.perturbation_supercell_coefficients")
        patch(eigcore.SymmetricPencil, "__init__", "eigcore.SymmetricPencil.__init__", _count_pencil)
        patch(eigcore, "solve_window", "eigcore.solve_window", _count_window)
        patch(eigcore, "solve_lowest", "eigcore.solve_lowest", _count_lowest)
        patch(bloch, "band_structure", "bloch.band_structure")
        patch(bloch, "fiber_bands", "bloch.fiber_bands", _count_fiber)
        patch(bloch, "assemble_fiber", "bloch.assemble_fiber")
        patch(bloch, "find_gap", "bloch.find_gap")
        patch(supercell, "supercell_spectrum", "supercell.supercell_spectrum", _count_planewaves)
        patch(supercell, "convergence_scan", "supercell.convergence_scan")
        patch(supercell, "assemble_supercell", "supercell.assemble_supercell")
        # supercell reaches scipy through its module attribute ``spla``; a
        # namespace copy with wrapped solvers leaves scipy itself untouched.
        spla = types.SimpleNamespace(**vars(supercell.spla))
        spla.eigsh = self.wrap("supercell.spla.eigsh", spla.eigsh)
        spla.minres = self._minres(spla.minres)
        self._saved.append((supercell, "spla", supercell.spla))
        supercell.spla = spla
        for attr in ("galerkin_spectrum", "dislocation_spectrum"):
            patch(fem1d, attr, "fem1d." + attr, _count_dof)
        for attr in ("assemble_galerkin", "symmetric_mesh", "classify_modes", "boundary_mass",
                     "compact_mass", "interval_mass"):
            patch(fem1d, attr, "fem1d." + attr)
        for attr in ("build_projector", "augmented_spectrum", "a2_estimate"):
            patch(augment, attr, "augment." + attr)
        patch(augment, "fem_fiber", "augment.fem_fiber", lambda t, *_: t.count("augment.fem_fibers", 1))
        patch(augment, "augmented_space", "augment.augmented_space",
              lambda t, out, *_: t.count("augment.n_aug", out.n_aug))

    def _minres(self, minres):
        """minres with its iterations counted through the callback argument."""

        def counted(*args, **kwargs):
            iters = [0]
            user_cb = kwargs.pop("callback", None)

            def cb(xk):
                iters[0] += 1
                if user_cb is not None:
                    user_cb(xk)

            with self.span("supercell.spla.minres"):
                sol, info = minres(*args, callback=cb, **kwargs)
            self.count("supercell.minres_calls", 1)
            self.count("supercell.minres_iters", iters[0])
            self.count("supercell.minres_nonconverged", int(info != 0))
            return sol, info

        return counted


def _count_written(t, out, args, kwargs):
    t.count("cli.bytes_written", os.path.getsize(args[0]))


def _count_eval(t, out, args, kwargs):
    t.count("model.eval_points", int(np.size(out)))


def _count_fourier(t, out, args, kwargs):
    d, grid = args[1], args[3]
    t.count("model.fourier_grid_points", int(grid) ** int(d))


def _count_pencil(t, out, args, kwargs):
    pencil = args[0]
    n = pencil.n
    nbytes = pencil.A.itemsize * n * n
    if pencil.B is not None:
        nbytes += pencil.B.itemsize * n * n
    t.count("eigcore.pencils", 1)
    t.count("eigcore.dense_bytes", nbytes)


def _count_residual(t, res):
    if res.residual_bound is not None:
        t.count("eigcore.residual_max", float(res.residual_bound))


def _count_window(t, res, args, kwargs):
    t.count("eigcore.solve_window_calls", 1)
    t.count("eigcore.solve_window_dof", args[0].n)
    t.count("eigcore.window_returned", len(res))
    _count_residual(t, res)


def _count_lowest(t, res, args, kwargs):
    t.count("eigcore.solve_lowest_calls", 1)
    _count_residual(t, res)


def _count_fiber(t, res, args, kwargs):
    t.count("bloch.fibers", 1)
    d = args[0].lattice.d
    t.count("bloch.fiber_n", (2 * int(args[2]) + 1) ** d)


def _count_planewaves(t, res, args, kwargs):
    t.count("supercell.n_planewaves", int(res.diagnostics.get("n_planewaves", 0)))


def _count_dof(t, res, args, kwargs):
    t.count("fem1d.n_dof", int(res.diagnostics["n_dof"]))


def self_times(spans):
    """Self time of each span: its duration minus the durations of its direct children."""
    out = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out


def run_metrics(spans, counters):
    """Per-layer metrics of one traced run from its spans and counters."""
    own = self_times(spans)
    m = {name: 0.0 for name in sorted(set(SELF_TIME.values()))}
    glue = 0.0
    for s in spans:
        metric = SELF_TIME.get(s[1])
        if metric is None:
            glue += own[s[0]]
        else:
            m[metric] += own[s[0]]
    for name in COUNTERS:
        m[name] = counters.get(name, 0)
    wall = sum(s[3] - s[2] for s in spans if s[4] is None)
    setup = sum(m[k] for k in SETUP_METRICS)
    m["trace.coverage"] = 1.0 - glue / (wall - setup)
    returned = m.pop("eigcore.window_returned")
    dof = m["eigcore.solve_window_dof"]
    m["eigcore.window_yield"] = returned / dof if dof else 0.0
    return m


# dense_bytes is itemsize * n**2 per pencil matrix, computed from the shapes,
# not measured traffic; its unit says so.
UNITS = {"_s": "s", "dense_bytes": "B-computed", "bytes_written": "B", "coverage": "ratio",
         "yield": "ratio", "residual_max": "1"}


def unit(name):
    for suffix, u in UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"
