"""Command line front end: validated JSON configs in, CSV tables and JSON summaries out.

Each subcommand reads the shared problem data (lattice, potential,
perturbation) plus its own parameter section from one config file, runs the
corresponding module, and writes CSV rows for plotting plus a JSON summary.
All sampling is fixed-seed and reductions are ordered, so outputs are
byte-identical across reruns (wall_time_s in the summary is the one
exception, it is timing).

Exit codes: 0 success, 2 config errors (nothing written), 3 numerical module
errors (summary JSON written with the error name).

Only model, eigcore and bloch, which need numpy alone, are imported here; the runners
import fem1d, augment and supercell in their own bodies.  bands, gap and
supercell, 1D or 2D, run on numpy alone.  The P1 subcommands (galerkin,
pollution-scan, dislocation, augment) also load scipy's compiled LAPACK
wrappers, scipy.linalg._flapack, through gapeig.lapack, and no scipy
package.  On the 1D benchmark config that took their processes from
0.64-0.93 s and 65-73 MB to 0.33-0.69 s and 42-50 MB (medians of 7 runs
on a 2-core machine, 1 BLAS thread).
jsonschema is imported only to explain a config that load_config rejects.
"""

import argparse
import functools
import io
import json
import os
import sys
import time

import numpy as np

from gapeig import bloch, eigcore, model
from gapeig.errors import ConfigError, GapeigError, MeshOffsetError

_WINDOW = {
    "oneOf": [
        {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        {"type": "string"},
    ]
}
_WAVEVECTOR = {
    "oneOf": [
        {"type": "integer"},
        {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 2},
    ]
}


def _one_or_list(kind, **bound):
    """A value of JSON type kind, or a non-empty list of them, each within bound."""
    item = {"type": kind, **bound}
    return {"oneOf": [item, {"type": "array", "items": item, "minItems": 1}]}


_REFERENCE = {
    "oneOf": [
        {"type": "array", "items": {"type": "number"}},
        {
            "type": "object",
            "properties": {
                "L": {"type": "integer", "minimum": 1},
                "ratio": {"type": "number", "minimum": 4},
            },
            "required": ["L"],
            "additionalProperties": False,
        },
    ]
}

SCHEMA = {
    "type": "object",
    "properties": {
        "lattice": {
            "type": "object",
            "properties": {
                "d": {"enum": [1, 2]},
                "b": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["d", "b"],
            "additionalProperties": False,
        },
        "potential": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "amplitude": {"type": "number"},
                    "kind": {"enum": ["cos", "sin"]},
                    "wavevector": _WAVEVECTOR,
                    "phase": {"type": "number"},
                },
                "required": ["amplitude", "kind", "wavevector"],
                "additionalProperties": False,
            },
        },
        "perturbation": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "coefficient": {"type": "number"},
                    "factors": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "prefixItems": [{"type": "number"}, {"type": "integer", "minimum": 0}],
                            "minItems": 2,
                            "maxItems": 2,
                        },
                        "minItems": 1,
                        "maxItems": 2,
                    },
                    "center": {"type": "array", "items": {"type": "number"}},
                    "sigma": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["coefficient", "factors"],
                "additionalProperties": False,
            },
        },
        "bands": {
            "type": "object",
            "properties": {
                "M_pw": {"type": "integer", "minimum": 1},
                "M_q": {"type": "integer", "minimum": 2, "multipleOf": 2},
                "J_max": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "gap": {
            "type": "object",
            "properties": {
                "J": {"type": "integer", "minimum": 1},
                "M_pw": {"type": "integer", "minimum": 1},
                "M_q": {"type": "integer", "minimum": 2, "multipleOf": 2},
                "J_max": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "supercell": {
            "type": "object",
            "properties": {
                "window": _WINDOW,
                "L": _one_or_list("integer", minimum=1),
                "ratio": {"type": "number", "minimum": 4},
                "t": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "method": {"enum": ["auto", "dense", "iterative"]},
            },
            "required": ["window", "L"],
            "additionalProperties": False,
        },
        "galerkin": {
            "type": "object",
            "properties": {
                "window": _WINDOW,
                "n_c": {"type": "integer", "minimum": 2},
                "n_half": _one_or_list("integer", minimum=2),
                "t": {"type": "number", "minimum": 0},
                "reference": _REFERENCE,
            },
            "required": ["window", "n_half"],
            "additionalProperties": False,
        },
        "dislocation": {
            "type": "object",
            "properties": {
                "window": _WINDOW,
                "kind": {
                    "oneOf": [
                        {"enum": ["halfline+", "halfline-", "junction"]},
                        {
                            "type": "array",
                            "items": {"enum": ["halfline+", "halfline-", "junction"]},
                            "minItems": 1,
                        },
                    ]
                },
                "t": _one_or_list("number"),
                "n_periods": {"type": "integer", "minimum": 20},
                "n_c": {"type": "integer", "minimum": 2},
            },
            "required": ["window", "kind", "t"],
            "additionalProperties": False,
        },
        "augment": {
            "type": "object",
            "properties": {
                "window": _WINDOW,
                "J": {"type": "integer", "minimum": 1},
                "n_c": {"type": "integer", "minimum": 2},
                "M_q": {"type": "integer", "minimum": 4, "multipleOf": 2},
                "L": _one_or_list("integer", minimum=4, multipleOf=2),
                "t": _one_or_list("number", minimum=0),
                "reference": _REFERENCE,
            },
            "required": ["window", "L"],
            "additionalProperties": False,
        },
        "pollution-scan": {
            "type": "object",
            "properties": {
                "window": _WINDOW,
                "n_c": {"type": "integer", "minimum": 2},
                "n_half": {"type": "array", "items": {"type": "integer", "minimum": 2}},
                "t": {"type": "number", "minimum": 0},
                "reference": _REFERENCE,
            },
            "required": ["window", "n_half", "reference"],
            "additionalProperties": False,
        },
    },
    "required": ["lattice"],
    "additionalProperties": False,
}

METHODS = ("bands", "gap", "supercell", "galerkin", "dislocation", "augment", "pollution-scan")


class _Unsupported(Exception):
    """A schema construct _conforms does not decide exactly."""


def _is_type(x, kind):
    """JSON Schema (draft 2020-12) types of JSON values, as jsonschema
    decides them: bool is neither integer nor number, and 1.0 is an integer."""
    if kind == "object":
        return isinstance(x, dict)
    if kind == "array":
        return isinstance(x, list)
    if kind == "string":
        return isinstance(x, str)
    if kind not in ("number", "integer"):
        raise _Unsupported(kind)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return kind == "number" or isinstance(x, int) or x.is_integer()


def _json_equal(a, x):
    """Equality of enum member a and value x, as jsonschema decides it."""
    if isinstance(a, (list, dict)):
        raise _Unsupported("enum member %r" % (a,))
    if isinstance(a, bool) or isinstance(x, bool):
        return a is x
    return a == x


def _conforms(x, schema):
    """Whether the JSON value x is valid under schema, for the keywords SCHEMA
    uses, with jsonschema's semantics; _Unsupported for any other keyword."""
    for key, arg in schema.items():
        if key == "type":
            ok = _is_type(x, arg)
        elif key == "enum":
            ok = any(_json_equal(a, x) for a in arg)
        elif key == "oneOf":
            ok = sum(_conforms(x, sub) for sub in arg) == 1
        elif key in ("properties", "required", "additionalProperties"):
            if not isinstance(x, dict):
                continue
            if key == "properties":
                ok = all(_conforms(x[k], sub) for k, sub in arg.items() if k in x)
            elif key == "required":
                ok = all(k in x for k in arg)
            elif arg is False and "patternProperties" not in schema:
                ok = set(x) <= set(schema.get("properties", {}))
            else:
                raise _Unsupported("additionalProperties %r" % (arg,))
        elif key in ("items", "prefixItems", "minItems", "maxItems"):
            if not isinstance(x, list):
                continue
            if key == "items":
                if not isinstance(arg, dict):
                    raise _Unsupported("items %r" % (arg,))
                ok = all(_conforms(v, arg) for v in x[len(schema.get("prefixItems", [])):])
            elif key == "prefixItems":
                ok = all(_conforms(v, sub) for v, sub in zip(x, arg))
            else:
                ok = len(x) >= arg if key == "minItems" else len(x) <= arg
        elif key in ("minimum", "exclusiveMinimum", "exclusiveMaximum", "multipleOf"):
            if not _is_type(x, "number"):
                continue
            if key == "minimum":
                ok = not x < arg
            elif key == "exclusiveMinimum":
                ok = not x <= arg
            elif key == "exclusiveMaximum":
                ok = not x >= arg
            elif isinstance(arg, int):
                ok = not x % arg
            else:
                raise _Unsupported("multipleOf %r" % (arg,))
        else:
            raise _Unsupported(key)
        if not ok:
            return False
    return True


@functools.cache
def _validator():
    """jsonschema's validator of SCHEMA, built once per process (SCHEMA
    itself is checked by the tests, not on every load)."""
    import jsonschema

    return jsonschema.Draft202012Validator(SCHEMA)


def load_config(path):
    """Read and validate a config file; ConfigError when it is unreadable,
    malformed or invalid.

    A valid config is accepted by _conforms, a check of the few keywords
    SCHEMA uses; only a config it rejects (or cannot decide) goes to
    jsonschema, which names the failing path and reason.  So the common
    case never imports jsonschema, whose import takes longer than a 1D gap
    sweep.
    """
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError("cannot read config: %s" % e) from None
    except ValueError as e:  # malformed JSON, or bytes that are not text
        raise ConfigError("malformed JSON in %s: %s" % (path, e)) from None
    try:
        valid = _conforms(cfg, SCHEMA)
    except _Unsupported:
        valid = False
    if not valid:
        import jsonschema

        e = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
        if e is not None:
            loc = "/".join(str(p) for p in e.absolute_path) or "<top>"
            raise ConfigError("config invalid at %s: %s" % (loc, e.message))
    return cfg


def build_problem(cfg):
    lat = model.Lattice(cfg["lattice"]["d"], cfg["lattice"]["b"])
    vterms = [
        (t["amplitude"], t["kind"], t["wavevector"], t.get("phase", 0.0))
        for t in cfg.get("potential", [])
    ]
    V = model.PeriodicPotential(lat, vterms)
    W = model.Perturbation(lat, cfg.get("perturbation", []))
    return lat, V, W


def resolve_window(entry, out_dir):
    """Explicit [alpha, beta] or the path of a gap JSON written previously.

    ConfigError when the file cannot be read or parsed, or unless the
    window is two finite numbers alpha < beta.
    """
    if isinstance(entry, (list, tuple)):
        ends, source = entry, "window"
    else:
        path = entry if os.path.isabs(entry) else os.path.join(out_dir, entry)
        if not os.path.exists(path):
            raise ConfigError(
                "window file %s not found; run the gap subcommand first or give an explicit window"
                % path
            )
        source = "window file %s" % path
        try:
            with open(path) as f:
                g = json.load(f)
        except OSError as e:
            raise ConfigError("cannot read %s: %s" % (source, e)) from None
        except ValueError as e:  # malformed JSON, or bytes that are not text
            raise ConfigError("malformed JSON in %s: %s" % (source, e)) from None
        try:
            ends = g["alpha"], g["beta"]
        except (KeyError, TypeError):
            raise ConfigError("%s lacks alpha/beta fields" % source) from None
    numbers = [x for x in ends if isinstance(x, (int, float)) and not isinstance(x, bool)]
    try:
        a, b = (float(x) for x in numbers)
    except (ValueError, OverflowError):  # a missing end, or an int beyond float range
        raise ConfigError("%s: alpha and beta must be numbers" % source) from None
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ConfigError("%s: alpha and beta must be finite" % source)
    if not a < b:
        raise ConfigError("%s must satisfy alpha < beta" % source)
    return a, b


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def write_json(path, obj):
    _atomic_write(path, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(v) for v in row) + "\n")
    _atomic_write(path, buf.getvalue())


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _as_list(x):
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _reference_values(ref, V, W, window):
    if isinstance(ref, (list, tuple)):
        return np.asarray(ref, dtype=float)
    from gapeig import supercell

    L = int(ref["L"])
    N = int(round(ref.get("ratio", 16) * L))
    return supercell.supercell_spectrum(V, W, L, N, window).interior()


def _band_structure(V, p, threads):
    """The band sweep of a bands or gap section p; ConfigError, before any
    solve, when J_max exceeds the (2*M_pw + 1)^d planewaves of a fiber."""
    d = V.lattice.d
    M_pw = p.get("M_pw", bloch.DEFAULT_M_PW[d])
    J_max = p.get("J_max", 4)
    if J_max > (2 * M_pw + 1) ** d:
        raise ConfigError(
            "J_max = %d exceeds the %d planewaves of a %dD fiber with M_pw = %d"
            % (J_max, (2 * M_pw + 1) ** d, d, M_pw)
        )
    return bloch.band_structure(V, M_pw=M_pw, M_q=p.get("M_q"), J_max=J_max, threads=threads)


def _fiber_diagnostics(bs):
    """Which fibers a band sweep solved: "real" ones about V's inversion
    centre, or "complex" ones (inversion_centre None), and the sizes of the
    mode classes each splits into."""
    return {"fiber_form": bs.fiber_form, "inversion_centre": bs.inversion_centre,
            "fiber_classes": bs.fiber_classes}


def run_bands(cfg, out_dir, threads):
    lat, V, _ = build_problem(cfg)
    bs = _band_structure(V, cfg.get("bands", {}), threads)
    header = ["q1", "band", "epsilon"] if lat.d == 1 else ["q1", "q2", "band", "epsilon"]
    rows = []
    for i in range(len(bs.qpoints)):
        for j in range(bs.J_max):
            rows.append(tuple(bs.qpoints[i]) + (j + 1, bs.bands[i, j]))
    write_csv(os.path.join(out_dir, "bands.csv"), header, rows)
    results = {
        "M_pw": bs.M_pw,
        "M_q": bs.M_q,
        "J_max": bs.J_max,
        "band_ranges": [bs.band_range(j + 1) for j in range(bs.J_max)],
    }
    return results, {"n_qpoints": len(bs.qpoints), **_fiber_diagnostics(bs)}, ["bands.csv"]


def run_gap(cfg, out_dir, threads):
    _, V, _ = build_problem(cfg)
    p = cfg.get("gap", {})
    bs = _band_structure(V, p, threads)
    gw = bloch.find_gap(bs, p.get("J", 1))
    out = {
        "J": gw.J,
        "alpha": gw.alpha,
        "beta": gw.beta,
        "gamma": gw.gamma,
        "M_pw": bs.M_pw,
        "M_q": bs.M_q,
    }
    write_json(os.path.join(out_dir, "gap.json"), out)
    results = dict(out)
    results["component_bands"] = gw.info.get("component_bands")
    diag = {"band_ranges": gw.info.get("band_ranges"), **_fiber_diagnostics(bs)}
    return results, diag, ["gap.json"]


def run_supercell(cfg, out_dir, threads):
    from gapeig import supercell

    _, V, W = build_problem(cfg)
    p = cfg["supercell"]
    window = resolve_window(p["window"], out_dir)
    Ls = _as_list(p["L"])
    ratio = p.get("ratio", 16)
    t = p.get("t", 0.0)
    method = p.get("method", "auto")
    if len(Ls) > 1 and t > 0:
        raise ConfigError(
            "supercell t = %g applies to one cell only; the convergence scan over L = %s "
            "runs commensurate cells" % (t, Ls)
        )
    if t > 0 and method != "auto":
        raise ConfigError(
            "supercell t = %g solves the mismatched cell densely; method %r does not apply"
            % (t, method)
        )
    if t > 0 and V.lattice.d != 1:
        raise ConfigError("supercell t = %g is a mismatched 1D cell; d = %d" % (t, V.lattice.d))
    if method == "iterative" and V.lattice.d != 2:
        raise ConfigError("supercell method 'iterative' is the matrix-free 2D solve; d = %d"
                          % V.lattice.d)
    rows = []
    results = {"window": list(window), "runs": []}
    if len(Ls) > 1:
        scan = supercell.convergence_scan(V, W, Ls, ratio, window, method=method)
        for row in scan:
            res = row["result"]
            for ev, cls in _edge_classes(res.eigenvalues, window):
                rows.append((row["L"], row["N"], 0.0, ev, cls))
            results["runs"].append(_run(res, L=row["L"], N=row["N"], interior=row["interior"],
                                        delta_prev=row["delta_prev"],
                                        diagnostics=res.diagnostics))
        # each cell's route facts stay with its run; the summary keeps
        # those every cell shares
        cells = [run["diagnostics"] for run in results["runs"]]
        diag = {key: value for key, value in cells[0].items()
                if all(cell.get(key) == value for cell in cells)}
    else:
        L = Ls[0]
        N = int(round(ratio * L))
        if t > 0:
            if N < 4 * (L + t):
                raise ConfigError(
                    "supercell ratio %g gives N = %d < 4*(L + t) = %g at L = %d, t = %g; "
                    "raise ratio" % (ratio, N, 4 * (L + t), L, t)
                )
            res = supercell.mismatched_supercell_spectrum(V, W, L, t, N, window)
        else:
            res = supercell.supercell_spectrum(V, W, L, N, window, method=method)
        for ev, cls in _edge_classes(res.eigenvalues, res.window):
            rows.append((L, N, t, ev, cls))
        results["runs"].append(_run(res, L=L, N=N, t=t, interior=res.interior()))
        diag = res.diagnostics
    write_csv(
        os.path.join(out_dir, "supercell.csv"),
        ["L", "N", "t", "eigenvalue", "class"],
        rows,
    )
    return results, diag, ["supercell.csv"]


def _edge_classes(values, window):
    """(value, "interior" or "edge") by eigcore's edge guard."""
    inside = eigcore.interior_mask(values, window)
    return [(ev, "interior" if ok else "edge") for ev, ok in zip(values, inside)]


def _run(res, **fields):
    """One summary run: the fields, the eigenvalues of the windowed solve
    res and its certificate, read from the eigcore.EigResult.  n_in_window
    is the solve's count (null for the matrix-free 2D supercell, which has
    none) and residual_bound its residual bound (null for the dense
    supercell solves, which return no vectors)."""
    return {**fields, "eigenvalues": res.eigenvalues,
            "certificate": {"n_in_window": res.count, "residual_bound": res.residual_bound}}


def _galerkin_section(cfg, out_dir, section, csv_name):
    """galerkin and pollution-scan on their config section, writing the
    rows to csv_name: one Galerkin solve per n_half, each mode classified
    against the reference."""
    from gapeig import fem1d

    lat, V, W = build_problem(cfg)
    p = cfg[section]
    window = resolve_window(p["window"], out_dir)
    n_c = p.get("n_c", 100)
    t = p.get("t", 0.0)
    try:  # every mesh is built, and an off-grid offset refused, before the reference solve
        meshes = [(n, fem1d.symmetric_mesh(lat, n_c, n, t)) for n in _as_list(p["n_half"])]
    except MeshOffsetError as e:
        raise ConfigError(str(e)) from None
    ref = _reference_values(p["reference"], V, W, window) if "reference" in p else None
    rows = []
    results = {"window": list(window), "runs": []}
    for n_half, mesh in meshes:
        res = fem1d.galerkin_spectrum(V, W, mesh, window)
        reports = fem1d.classify_modes(mesh, res, ref)
        rows.extend((n_half, t, n_c, mesh.h, *r) for r in reports)
        results["runs"].append(
            _run(res, n_half=n_half, t=t, classes=[r.classification for r in reports]))
    write_csv(
        os.path.join(out_dir, csv_name),
        ["n_half", "t", "n_c", "h", "eigenvalue", "mu_boundary", "mu_compact", "class"],
        rows,
    )
    return results, {"reference": ref}, [csv_name]


def run_galerkin(cfg, out_dir, threads):
    return _galerkin_section(cfg, out_dir, "galerkin", "galerkin.csv")


def run_pollution_scan(cfg, out_dir, threads):
    results, diag, files = _galerkin_section(cfg, out_dir, "pollution-scan", "pollution.csv")
    runs = results["runs"]
    results["n_runs"] = len(runs)
    results["runs_with_spurious"] = sum("spurious" in run["classes"] for run in runs)
    results["spurious_eigenvalues"] = [ev for run in runs
                                       for ev, cls in zip(run["eigenvalues"], run["classes"])
                                       if cls == "spurious"]
    return results, diag, files


def run_dislocation(cfg, out_dir, threads):
    from gapeig import fem1d

    _, V, _ = build_problem(cfg)
    p = cfg["dislocation"]
    window = resolve_window(p["window"], out_dir)
    n_periods = p.get("n_periods", 40)
    n_c = p.get("n_c", 100)
    rows = []
    results = {"window": list(window), "runs": []}
    for kind in _as_list(p["kind"]):
        for t in _as_list(p["t"]):
            res = fem1d.dislocation_spectrum(
                V, kind, t, window, n_periods=n_periods, n_c=n_c
            )
            for ev in res.eigenvalues:
                rows.append((kind, t, n_periods, n_c, ev))
            results["runs"].append(_run(res, kind=kind, t=t))
    write_csv(
        os.path.join(out_dir, "dislocation.csv"),
        ["kind", "t", "n_periods", "n_c", "eigenvalue"],
        rows,
    )
    return results, {"n_periods": n_periods, "n_c": n_c}, ["dislocation.csv"]


def run_augment(cfg, out_dir, threads):
    from gapeig import augment, fem1d

    lat, V, W = build_problem(cfg)
    p = cfg["augment"]
    J = p.get("J", 1)
    n_c = p.get("n_c", 100)
    n_pw = 2 * augment.DEFAULT_M_PW + 1
    if J + 1 > min(n_c, n_pw):
        raise ConfigError(
            "augment J = %d needs J + 1 bands of the P1 fiber (n_c = %d nodes) and of the "
            "reference fiber (%d planewaves)" % (J, n_c, n_pw)
        )
    M_q = p.get("M_q", 64)
    # every domain is checked against the window before the projector is built
    meshes = []
    for L in _as_list(p["L"]):
        for t in _as_list(p.get("t", 0.0)):
            try:
                mesh = fem1d.symmetric_mesh(lat, n_c, L // 2, t)
            except MeshOffsetError as e:
                raise ConfigError("augment: %s" % e)
            room = min(augment.window_margins(mesh, M_q))
            if room < augment.WINDOW_MARGIN:
                raise ConfigError(
                    "augment L = %d, t = %g leaves %.2f periods to the edge of the M_q = %d "
                    "window; the projector needs %g (increase M_q)"
                    % (L, t, room, M_q, augment.WINDOW_MARGIN)
                )
            meshes.append((L, t, mesh))
    window = resolve_window(p["window"], out_dir)
    P = augment.build_projector(V, J=J, n_c=n_c, M_q=M_q)
    ref = _reference_values(p["reference"], V, W, window) if "reference" in p else None
    rows = []
    results = {"window": list(window), "runs": []}
    for L, t, mesh in meshes:
        aug = augment.augmented_space(P, mesh)
        res = augment.augmented_spectrum(V, W, aug, window)
        values = aug.node_values(res.eigenvectors)
        for i, ev in enumerate(res.eigenvalues):
            rows.append((L, t, n_c, M_q, *fem1d.localize(mesh, ev, values[:, i], res.window, ref)))
        results["runs"].append(_run(res, L=L, t=t, interior=res.interior(), n_aug=aug.n_aug,
                                    gram_min=aug.diagnostics["gram_min"]))
    a2 = augment.a2_estimate(V, meshes[0][2], P)
    report = {
        "idempotency_residual": P.diagnostics["idempotency_residual"],
        "kernel_decay": P.diagnostics["decay_at_6_periods"],
        "a2_estimate": a2["estimate"],
        "trace_per_cell": P.diagnostics["trace_per_cell"],
        "translation_defect": P.diagnostics["translation_defect"],
    }
    write_json(os.path.join(out_dir, "augment_report.json"), report)
    write_csv(
        os.path.join(out_dir, "augment.csv"),
        ["L", "t", "n_c", "M_q", "eigenvalue", "mu_boundary", "mu_compact", "class"],
        rows,
    )
    results["projector_report"] = report
    return results, dict(P.diagnostics), ["augment.csv", "augment_report.json"]


# subcommands built on 1D P1 finite elements
ONE_D_METHODS = ("galerkin", "pollution-scan", "dislocation", "augment")

RUNNERS = {
    "bands": run_bands,
    "gap": run_gap,
    "supercell": run_supercell,
    "galerkin": run_galerkin,
    "dislocation": run_dislocation,
    "augment": run_augment,
    "pollution-scan": run_pollution_scan,
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="gapeig",
        description="Gap eigenvalues of perturbed periodic Schrodinger operators",
    )
    ap.add_argument("method", choices=METHODS)
    ap.add_argument("--config", required=True, help="JSON experiment description")
    ap.add_argument("--out", default=".", help="output directory (default: current)")
    ap.add_argument("--threads", type=int, default=1, help="worker threads for fiber sweeps")
    args = ap.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1, got %d" % args.threads)
        cfg = load_config(args.config)
        if args.method not in ("bands", "gap") and args.method not in cfg:
            raise ConfigError("config has no '%s' section" % args.method)
        if args.method in ONE_D_METHODS and cfg["lattice"]["d"] != 1:
            raise ConfigError("%s runs 1D finite elements; the config has d = %d"
                              % (args.method, cfg["lattice"]["d"]))
        os.makedirs(args.out, exist_ok=True)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2

    summary_path = os.path.join(args.out, "summary.json")
    t0 = time.perf_counter()
    try:
        results, diagnostics, files = RUNNERS[args.method](cfg, args.out, args.threads)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except GapeigError as e:
        write_json(
            summary_path,
            {
                "method": args.method,
                "params": cfg.get(args.method, {}),
                "error": type(e).__name__,
                "message": str(e),
                "wall_time_s": time.perf_counter() - t0,
            },
        )
        print("numerical error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    write_json(
        summary_path,
        {
            "method": args.method,
            "params": cfg.get(args.method, {}),
            "results": results,
            "diagnostics": diagnostics,
            "wall_time_s": time.perf_counter() - t0,
            "files": files,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
