"""Seeded workload configs, reference values and output checks.

Each workload is a short chain of ``gapeig`` subcommands on one generated
config.  The lattice, the periodic potential V and the perturbation W are
those of the shipped ``configs/benchmark{1d,2d}.json``, so the spectral gap
does not move between seeds; the seed only jitters the coefficient and the
centre of W, by amounts small enough that the number of defect eigenvalues
stays the same (2 in 1D, 1 in 2D).

In 2D the small benchmarked cell (L=2, N=18) leaves one more value inside
the gap window: a band-edge value about 0.003 above the lower edge, which
is there without W as well and stays at any Bloch grid M_q from 8 to 16.
defect-2d therefore reports two interior values, and its checks and ref_err
cover both.

The checks read only what the subcommands wrote into their output
directory and compare it with reference spectra that the benchmark computes
itself, outside the timed region.
"""

import csv
import json
import os
import random

import numpy as np

from gapeig import cli, supercell

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
COEFFICIENT_JITTER = 0.002  # relative
CENTER_JITTER = 0.004  # absolute, per axis

# 1D reference: the pollution-free supercell at L=40, N/L=16.
REF_1D = (40, 640)
# 2D: the benchmarked iterative solve runs at (L, N) = (2, 18); the same
# cell solved densely must agree to 1e-8, and a finer dense basis gives ref_err.
SUPERCELL_2D = (2, 18)
FINE_N_2D = 24

# Why each workload exists and which layers carry its time.
WORKLOADS = {
    "pollution-1d": {
        "d": 1,
        # Dense windowed LAPACK solves of tridiagonal P1 pencils dominate
        # (eigcore.solve_window on fem1d pencils of 900 to 2000 dofs).
        "steps": ["gap", "pollution-scan", "dislocation"],
        "sections": {
            "gap": {"J": 1},
            "pollution-scan": {
                "window": "gap.json",
                "n_c": 100,
                "n_half": [4, 6, 8],
                "t": 0.5,
                "reference": {"L": 20, "ratio": 16},
            },
            # At t=0.5 halfline- is the same operator as halfline+ (V has
            # period b), so one kind predicts both boundaries.
            "dislocation": {
                "window": "gap.json",
                "kind": ["halfline+"],
                "t": [0.5],
                "n_periods": 20,
                "n_c": 100,
            },
        },
    },
    "augment-1d": {
        "d": 1,
        # The same eigcore solve on bordered pencils (tridiagonal block plus
        # about 10 dense columns), the projector build and dense 1D supercells.
        "steps": ["gap", "supercell", "augment"],
        "sections": {
            "gap": {"J": 1},
            "supercell": {"window": "gap.json", "L": [10, 20, 40], "ratio": 16},
            "augment": {
                "window": "gap.json",
                "J": 1,
                "n_c": 100,
                "M_q": 64,
                "L": [10, 16],
                "t": [0.0, 0.5],
                "reference": {"L": 20, "ratio": 16},
            },
        },
    },
    "defect-2d": {
        "d": 2,
        # The Bloch fiber sweep and the matrix-free shift-invert MINRES path;
        # no P1 pencil is built.
        "steps": ["gap", "supercell"],
        "sections": {
            "gap": {"J": 1, "M_q": 8},
            "supercell": {
                "window": "gap.json",
                "L": SUPERCELL_2D[0],
                "ratio": SUPERCELL_2D[1] / SUPERCELL_2D[0],
                "method": "iterative",
            },
        },
    },
}


class CheckFailed(Exception):
    """An output file is missing, malformed or numerically wrong."""


def make_config(workload, seed):
    """Config dict for one workload and seed; the same seed gives the same dict."""
    spec = WORKLOADS[workload]
    with open(os.path.join(CONFIGS, "benchmark%dd.json" % spec["d"])) as f:
        shipped = json.load(f)
    rng = random.Random(seed)
    for w in shipped["perturbation"]:
        w["coefficient"] *= 1.0 + COEFFICIENT_JITTER * rng.uniform(-1.0, 1.0)
        w["center"] = [c + CENTER_JITTER * rng.uniform(-1.0, 1.0) for c in w["center"]]
    cfg = {k: shipped[k] for k in ("lattice", "potential", "perturbation")}
    cfg.update(json.loads(json.dumps(spec["sections"])))
    return cfg


def write_config(workload, seed, path):
    """Write the generated config and validate it with the program's own loader."""
    with open(path, "w") as f:
        json.dump(make_config(workload, seed), f, indent=1)
    cli.load_config(path)
    return path


def read_window(out_dir):
    g = _read_json(os.path.join(out_dir, "gap.json"))
    try:
        alpha, beta = float(g["alpha"]), float(g["beta"])
    except (KeyError, TypeError, ValueError):
        raise CheckFailed("gap.json lacks numeric alpha/beta") from None
    if not alpha < beta:
        raise CheckFailed("gap.json window is empty: alpha=%r beta=%r" % (alpha, beta))
    return alpha, beta


def references(workload, config_path, window):
    """Reference spectra the checks compare against (computed in-process, untimed)."""
    _, V, W = cli.build_problem(cli.load_config(config_path))
    if WORKLOADS[workload]["d"] == 1:
        L, N = REF_1D
        return {"supercell": supercell.supercell_spectrum(V, W, L, N, window).interior()}
    L, N = SUPERCELL_2D
    same = supercell.supercell_spectrum(V, W, L, N, window, method="dense").interior()
    fine = supercell.supercell_spectrum(V, W, L, FINE_N_2D, window, method="dense").interior()
    return {"same_basis": same, "fine_basis": fine}


def _read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckFailed("cannot read %s: %s" % (os.path.basename(path), e)) from None


def read_csv(path, numeric):
    """Rows of a CSV as dicts, with the named columns converted to float."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        raise CheckFailed("cannot read %s: %s" % (os.path.basename(path), e)) from None
    for r in rows:
        for k in numeric:
            try:
                r[k] = float(r[k])
            except (KeyError, TypeError, ValueError):
                raise CheckFailed("%s: bad %s in row %r" % (os.path.basename(path), k, r)) from None
    return rows


def _distance(values, ref):
    """Largest distance from any of values to the nearest reference value."""
    ref = np.asarray(ref, dtype=float)
    if len(values) == 0 or len(ref) == 0:
        raise CheckFailed("no values to compare against the reference")
    return max(float(np.min(np.abs(ref - v))) for v in values)


def _hausdorff(a, b):
    return max(_distance(a, b), _distance(b, a))


def check_pollution(out_dir, refs):
    """Spurious values in most scans, each predicted by a half-line dislocation.

    Returns ref_err: the distance of the true values at the largest n_half
    to the supercell reference.
    """
    ref = refs["supercell"]
    rows = read_csv(os.path.join(out_dir, "pollution.csv"), ["n_half", "eigenvalue"])
    disl = read_csv(os.path.join(out_dir, "dislocation.csv"), ["eigenvalue"])
    scans = sorted({r["n_half"] for r in rows})
    if not scans:
        raise CheckFailed("pollution.csv has no rows")
    polluted = {r["n_half"] for r in rows if r["class"] == "spurious"}
    if 2 * len(polluted) <= len(scans):
        raise CheckFailed("spurious values in only %d of %d scans" % (len(polluted), len(scans)))
    halfline = [r["eigenvalue"] for r in disl if r["kind"].startswith("halfline")]
    spurious = sorted({round(r["eigenvalue"], 6) for r in rows if r["class"] == "spurious"})
    if _distance(spurious, halfline) > 0.03:
        raise CheckFailed("a spurious value lies farther than 0.03 from every half-line eigenvalue")
    for n_half in scans:
        true = [r["eigenvalue"] for r in rows if r["n_half"] == n_half and r["class"] == "true"]
        if len(true) != len(ref) or _distance(true, ref) > 0.02:
            raise CheckFailed("n_half=%g: true values %r do not match %r" % (n_half, true, list(ref)))
    return _distance([r["eigenvalue"] for r in rows if r["n_half"] == scans[-1] and r["class"] == "true"], ref)


def check_augment(out_dir, refs):
    """No spurious augmented value, every interior value matches the reference,
    and the supercell convergence scan converges.  Returns ref_err."""
    ref = refs["supercell"]
    sc = read_csv(os.path.join(out_dir, "supercell.csv"), ["L", "eigenvalue"])
    Ls = sorted({r["L"] for r in sc})
    interior = {L: [r["eigenvalue"] for r in sc if r["L"] == L and r["class"] == "interior"] for L in Ls}
    if len(Ls) < 3:
        raise CheckFailed("supercell scan has %d cells, expected at least 3" % len(Ls))
    deltas = [_hausdorff(interior[a], interior[b]) for a, b in zip(Ls, Ls[1:])]
    if any(d1 >= d0 for d0, d1 in zip(deltas, deltas[1:])):
        raise CheckFailed("supercell Hausdorff deltas do not decrease: %r" % deltas)
    if Ls[-1] == REF_1D[0] and (
        len(interior[Ls[-1]]) != len(ref) or _hausdorff(interior[Ls[-1]], ref) > 1e-9
    ):
        raise CheckFailed("supercell L=%d values differ from the reference" % Ls[-1])
    rows = read_csv(os.path.join(out_dir, "augment.csv"), ["L", "t", "eigenvalue"])
    if any(r["class"] == "spurious" for r in rows):
        raise CheckFailed("augment.csv has a spurious row")
    inside = [r for r in rows if r["class"] != "undetermined"]
    for key in sorted({(r["L"], r["t"]) for r in rows}):
        vals = [r["eigenvalue"] for r in inside if (r["L"], r["t"]) == key]
        if len(vals) != len(ref) or _distance(vals, ref) > 0.02:
            raise CheckFailed("augment L=%g t=%g: values %r do not match %r" % (key + (vals, list(ref))))
    return _distance([r["eigenvalue"] for r in inside], ref)


def check_defect(out_dir, refs):
    """The gap is found and the iterative interior set equals the dense one.
    Returns ref_err against the finer dense basis."""
    read_window(out_dir)
    rows = read_csv(os.path.join(out_dir, "supercell.csv"), ["eigenvalue"])
    vals = sorted(r["eigenvalue"] for r in rows if r["class"] == "interior")
    same = np.sort(refs["same_basis"])
    if len(vals) != len(same) or np.max(np.abs(np.asarray(vals) - same), initial=0.0) > 1e-8:
        raise CheckFailed("iterative interior %r differs from dense %r" % (vals, list(same)))
    return _distance(vals, refs["fine_basis"])


CHECKS = {"pollution-1d": check_pollution, "augment-1d": check_augment, "defect-2d": check_defect}
