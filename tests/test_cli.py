"""End-to-end CLI: config validation, exit codes, outputs, determinism."""

import csv
import importlib.util
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapeig import augment, cli
from gapeig.errors import ConfigError

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN_1D = os.path.join(ROOT, "configs", "benchmark1d.json")
GOLDEN_2D = os.path.join(ROOT, "configs", "benchmark2d.json")

SMALL_CFG = {
    "lattice": {"d": 1, "b": 6.283185307179586},
    "potential": [
        {"amplitude": 1.0, "kind": "cos", "wavevector": 1},
        {"amplitude": 3.0, "kind": "sin", "wavevector": 2, "phase": 1.0},
    ],
    "perturbation": [
        {"coefficient": -1.0, "factors": [[2.0, 2]], "center": [0.0], "sigma": 1.0}
    ],
    "gap": {"J": 1, "M_pw": 16, "M_q": 32},
    "bands": {"M_pw": 8, "M_q": 8, "J_max": 3},
    "supercell": {"window": "gap.json", "L": 5, "ratio": 16},
    "galerkin": {
        "window": "gap.json",
        "n_c": 50,
        "n_half": 5,
        "t": 0.5,
        "reference": [-1.0451627964356383, -0.6541194618386763],
    },
    "pollution-scan": {
        "window": "gap.json",
        "n_c": 50,
        "n_half": [5, 6],
        "t": 0.5,
        "reference": [-1.0451627964356383, -0.6541194618386763],
    },
    "dislocation": {"window": "gap.json", "kind": "halfline+", "t": 0.5, "n_periods": 20, "n_c": 50},
    "augment": {
        "window": "gap.json",
        "n_c": 40,
        "M_q": 16,
        "L": [8],
        "t": [0.0],
        "reference": [-1.0451627964356383, -0.6541194618386763],
    },
}


# a small 2D supercell on the matrix-free route
ITERATIVE_2D = {"window": [-0.361330513742, -0.005748116668], "L": 2, "ratio": 4,
                "method": "iterative"}


def read_cfg(path):
    with open(path) as f:
        return json.load(f)


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_summary(out):
    with open(os.path.join(str(out), "summary.json")) as f:
        return json.load(f)


def test_gap_and_dependents(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["gap", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "gap.json")) as f:
        gap = json.load(f)
    assert gap["alpha"] == pytest.approx(-1.1442549, abs=1e-3)
    assert gap["beta"] == pytest.approx(-0.6450826, abs=1e-3)
    s = read_summary(out)
    assert s["method"] == "gap"
    assert "wall_time_s" in s

    # supercell resolves its window from the gap file just written
    assert cli.main(["supercell", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "supercell.csv")) as f:
        rows = list(csv.DictReader(f))
    assert rows and set(rows[0]) == {"L", "N", "t", "eigenvalue", "class"}
    interior = [float(r["eigenvalue"]) for r in rows if r["class"] == "interior"]
    assert len(interior) == 2

    assert cli.main(["galerkin", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "galerkin.csv")) as f:
        rows = list(csv.DictReader(f))
    classes = {r["class"] for r in rows}
    assert "true" in classes and "spurious" in classes

    assert cli.main(["dislocation", "--config", cfg, "--out", out]) == 0
    s = read_summary(out)
    assert s["results"]["runs"][0]["kind"] == "halfline+"

    assert cli.main(["augment", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "augment_report.json")) as f:
        rep = json.load(f)
    assert rep["idempotency_residual"] <= 1e-6
    assert rep["a2_estimate"] > 0
    for run in read_summary(out)["results"]["runs"]:
        assert run["gram_min"] > augment.SIGMA_TOL

    assert cli.main(["pollution-scan", "--config", cfg, "--out", out]) == 0
    s = read_summary(out)
    assert s["results"]["n_runs"] == 2
    assert s["results"]["runs_with_spurious"] == 2


def test_galerkin_without_reference(tmp_path):
    # with no reference the rows carry interior/undetermined labels only, and
    # they and their masses are exactly classify_modes(mesh, res, None)
    from gapeig import fem1d

    p = {k: v for k, v in SMALL_CFG["galerkin"].items() if k != "reference"}
    cfg = write_cfg(tmp_path, dict(SMALL_CFG, galerkin=p))
    out = str(tmp_path / "out")
    assert cli.main(["gap", "--config", cfg, "--out", out]) == 0
    assert cli.main(["galerkin", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "galerkin.csv")) as f:
        rows = list(csv.DictReader(f))
    assert "interior" in {r["class"] for r in rows} <= {"interior", "undetermined"}
    lat, V, W = cli.build_problem(cli.load_config(cfg))
    mesh = fem1d.symmetric_mesh(lat, p["n_c"], p["n_half"], p["t"])
    res = fem1d.galerkin_spectrum(V, W, mesh, cli.resolve_window(p["window"], out))
    want = [
        (r.eigenvalue, r.mu_boundary, r.mu_compact, r.classification)
        for r in fem1d.classify_modes(mesh, res, None)
    ]
    got = [
        (float(r["eigenvalue"]), float(r["mu_boundary"]), float(r["mu_compact"]), r["class"])
        for r in rows
    ]
    assert got == want


def test_bands_csv(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["bands", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "bands.csv")) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8 * 3
    assert set(rows[0]) == {"q1", "band", "epsilon"}


def test_golden_1d_gap(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["gap", "--config", GOLDEN_1D, "--out", out]) == 0
    with open(os.path.join(out, "gap.json")) as f:
        gap = json.load(f)
    assert gap["alpha"] == pytest.approx(-1.15, abs=0.02)
    assert gap["beta"] == pytest.approx(-0.65, abs=0.02)
    assert gap["M_pw"] == 32 and gap["M_q"] == 64


def test_determinism(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli.main(["gap", "--config", cfg, "--out", out]) == 0
        assert cli.main(["supercell", "--config", cfg, "--out", out]) == 0
        outs.append(out)
    for fname in ("gap.json", "supercell.csv"):
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
        assert a == b
    sa = read_summary(outs[0])
    sb = read_summary(outs[1])
    sa.pop("wall_time_s")
    sb.pop("wall_time_s")
    assert sa == sb
    # the 1D supercell run carries the certificate of its fiber-form solve
    (run,) = sa["results"]["runs"]
    assert run["certificate"]["n_in_window"] == len(run["eigenvalues"]) == 2
    assert 0 < run["certificate"]["residual_bound"] <= 1e-10
    for key in ("rank_w", "support_points", "lanczos_steps"):
        assert sa["diagnostics"][key] > 0
    # the 2D matrix-free run's diagnostics, GMRES iteration count included,
    # are deterministic too
    cfg2 = read_cfg(GOLDEN_2D)
    cfg2["supercell"] = ITERATIVE_2D
    cfg2 = write_cfg(tmp_path, cfg2, "two.json")
    summaries = []
    for name in ("c", "d"):
        assert cli.main(["supercell", "--config", cfg2, "--out", str(tmp_path / name)]) == 0
        summaries.append(read_summary(tmp_path / name))
        summaries[-1].pop("wall_time_s")
    assert summaries[0] == summaries[1]
    diag = summaries[0]["diagnostics"]
    assert diag["inner_iterations"] > diag["inner_solves"] > 0


def test_determinism_structured_solves(tmp_path):
    # the P1 subcommands go through the inertia-certified Lanczos solver;
    # its fixed start vector keeps reruns byte-identical
    cfg = write_cfg(tmp_path, SMALL_CFG)
    steps = (("pollution-scan", "pollution.csv"), ("dislocation", "dislocation.csv"),
             ("augment", "augment.csv"))
    summaries = {}
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli.main(["gap", "--config", cfg, "--out", out]) == 0
        for method, _ in steps:
            assert cli.main([method, "--config", cfg, "--out", out]) == 0
            s = read_summary(out)
            s.pop("wall_time_s")
            summaries[name, method] = s
    for method, fname in steps:
        a = open(os.path.join(str(tmp_path / "a"), fname), "rb").read()
        b = open(os.path.join(str(tmp_path / "b"), fname), "rb").read()
        assert a == b
        assert summaries["a", method] == summaries["b", method]
        for run in summaries["a", method]["results"]["runs"]:
            assert run["certificate"]["n_in_window"] == len(run["eigenvalues"])


def test_every_run_has_one_certificate_schema(tmp_path):
    # every windowed run of every subcommand carries the certificate of its
    # solve under the same two keys, null where the solve has no such
    # number; the diagnostics hold no copy of it
    out = str(tmp_path / "out")
    assert cli.main(["gap", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", out]) == 0
    jobs = [("supercell", dict(SMALL_CFG["supercell"], L=[5, 6]), "fibers"),
            ("supercell", dict(SMALL_CFG["supercell"], method="dense"), "dense"),
            ("supercell", dict(SMALL_CFG["supercell"], t=0.5), "dense-mismatched")]
    jobs += [(method, SMALL_CFG[method], None)
             for method in ("galerkin", "pollution-scan", "dislocation", "augment")]
    summaries = []
    for method, section, route in jobs:
        cfg = write_cfg(tmp_path, dict(SMALL_CFG, **{method: section}))
        assert cli.main([method, "--config", cfg, "--out", out]) == 0
        summaries.append((read_summary(out), route))
    cfg2 = dict(read_cfg(GOLDEN_2D), supercell=ITERATIVE_2D)
    out2 = str(tmp_path / "out2")
    assert cli.main(["supercell", "--config", write_cfg(tmp_path, cfg2, "two.json"),
                     "--out", out2]) == 0
    summaries.append((read_summary(out2), "shift-invert"))
    for s, route in summaries:
        assert not {"n_in_window", "residual_bound", "sigma", "window_complete"} & set(
            s["diagnostics"])
        if route is not None:
            assert s["diagnostics"]["method"] == route
        assert s["results"]["runs"]
        for run in s["results"]["runs"]:
            cert = run["certificate"]
            assert set(cert) == {"n_in_window", "residual_bound"}
            assert cert["n_in_window"] in (None, len(run["eigenvalues"]))
            # the dense supercell solves count and return no vectors; the
            # matrix-free one bounds its residual and has no count
            assert (cert["n_in_window"] is None) == (route == "shift-invert")
            assert (cert["residual_bound"] is None) == (route in ("dense", "dense-mismatched"))


def test_threads_flag_same_output(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    outs = []
    for name, threads in (("t1", "1"), ("t2", "2")):
        out = str(tmp_path / name)
        assert cli.main(["gap", "--config", cfg, "--out", out, "--threads", threads]) == 0
        outs.append(out)
    a = open(os.path.join(outs[0], "gap.json"), "rb").read()
    b = open(os.path.join(outs[1], "gap.json"), "rb").read()
    assert a == b


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit2(tmp_path, capsys, threads):
    # the flag has the config key's minimum of 1; it neither runs nor falls back
    out = tmp_path / "out"
    assert cli.main(["gap", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", str(out),
                     "--threads", threads]) == 2
    assert not os.path.exists(out)
    assert "--threads" in capsys.readouterr().err


def test_malformed_json_exit2_no_outputs(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"lattice": {')
    out = str(tmp_path / "out")
    assert cli.main(["gap", "--config", str(p), "--out", out]) == 2
    assert not os.path.exists(out)
    assert "config error" in capsys.readouterr().err


def test_config_not_text_exit2_no_outputs(tmp_path, capsys):
    # bytes that are not UTF-8 text are a config error like malformed JSON
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    out = str(tmp_path / "out")
    assert cli.main(["gap", "--config", str(p), "--out", out]) == 2
    assert not os.path.exists(out)
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exit2(tmp_path):
    cfg = dict(SMALL_CFG)
    cfg["surprise"] = 1
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["gap", "--config", p, "--out", str(tmp_path / "out")]) == 2


def _supercell_exit(tmp_path, section, d=1):
    """Exit code of gapeig supercell on the 1D or 2D benchmark problem with
    the given supercell section, and whether it wrote anything."""
    cfg = read_cfg(GOLDEN_1D if d == 1 else GOLDEN_2D)
    cfg["supercell"] = section
    out = tmp_path / "out"
    code = cli.main(["supercell", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    return code, os.path.exists(out) and bool(os.listdir(out))


WIN_1D = [-1.1442549263927626, -0.6450826051490102]


@pytest.mark.parametrize(
    "section",
    [
        {"window": WIN_1D, "L": 10, "method": "iterative"},
        {"window": WIN_1D, "L": [10, 20], "method": "iterative"},
        {"window": WIN_1D, "L": 10, "t": 0.5, "method": "dense"},
        {"window": WIN_1D, "L": 10, "t": 0.5, "method": "iterative"},
        {"window": WIN_1D, "L": 10, "k": 10},
    ],
    ids=["iterative-1d", "iterative-1d-scan", "dense-mismatched", "iterative-mismatched", "k-key"],
)
def test_supercell_method_never_ignored(tmp_path, capsys, section):
    # a method the run would not use is a config error (exit 2, nothing
    # written), not a crash or a silently different solve; k is gone
    assert _supercell_exit(tmp_path, section) == (2, False)
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, section",
    [
        ("galerkin", {"window": [-0.36, -0.01], "n_half": 2, "reference": [-0.1]}),
        ("pollution-scan", {"window": [-0.36, -0.01], "n_half": [2], "reference": [-0.1]}),
        ("dislocation", {"window": [-0.36, -0.01], "kind": "halfline+", "t": 0.5}),
        ("augment", {"window": [-0.36, -0.01], "L": 4}),
        ("supercell", {"window": [-0.36, -0.01], "L": 2, "t": 0.5}),
    ],
    ids=["galerkin", "pollution-scan", "dislocation", "augment", "supercell-mismatched"],
)
def test_1d_only_method_on_2d_config_exit2(tmp_path, capsys, method, section):
    # P1 finite elements and the mismatched cell are 1D: a 2D config is a
    # config error (exit 2, nothing written), not a traceback
    cfg = read_cfg(GOLDEN_2D)
    cfg[method] = section
    out = tmp_path / "out"
    assert cli.main([method, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert not os.path.exists(out) or os.listdir(out) == []
    assert "config error" in capsys.readouterr().err


def test_supercell_scan_takes_method(tmp_path):
    # the convergence scan runs the method asked for, in 1D and in 2D
    assert _supercell_exit(tmp_path, {"window": WIN_1D, "L": [10, 20], "method": "dense"}) == (0, True)
    assert read_summary(tmp_path / "out")["diagnostics"]["method"] == "dense"
    section = dict(ITERATIVE_2D, L=[2, 3])
    assert _supercell_exit(tmp_path, section, d=2) == (0, True)
    s = read_summary(tmp_path / "out")
    assert s["diagnostics"]["method"] == "shift-invert"
    assert [run["L"] for run in s["results"]["runs"]] == [2, 3]


def test_schema_is_valid():
    # load_config builds its validator once without checking SCHEMA itself
    jsonschema.Draft202012Validator.check_schema(cli.SCHEMA)


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.update(surprise=1),
        lambda c: c["gap"].update(M_quux=3),
        lambda c: c["lattice"].update(d=3),
        lambda c: c["supercell"].update(L="five"),
        lambda c: c["perturbation"][0].update(sigma=-1.0),
        # sizes that pass a bare integer check but cannot be run
        lambda c: c["supercell"].update(L=0),
        lambda c: c["galerkin"].update(n_half=1),
        lambda c: c["augment"].update(L=2),
        lambda c: c["augment"].update(L=[10, 15]),
    ],
)
def test_config_error_matches_jsonschema_validate(tmp_path, edit):
    # same failing path and message as a full jsonschema.validate call
    cfg = json.loads(json.dumps(SMALL_CFG))
    edit(cfg)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(cfg, cli.SCHEMA)
    loc = "/".join(str(p) for p in want.value.absolute_path) or "<top>"
    with pytest.raises(ConfigError) as got:
        cli.load_config(write_cfg(tmp_path, cfg))
    assert str(got.value) == "config invalid at %s: %s" % (loc, want.value.message)


def test_unknown_section_key_exit2(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["gap"]["M_quux"] = 3
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["gap", "--config", p, "--out", str(tmp_path / "out")]) == 2


def test_missing_section_exit2(tmp_path):
    cfg = {"lattice": {"d": 1, "b": 6.28}}
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["supercell", "--config", p, "--out", str(tmp_path / "out")]) == 2


def test_missing_window_file_exit2(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CFG))
    p = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    # no gap run first: the referenced window file does not exist
    assert cli.main(["supercell", "--config", p, "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "supercell.csv"))


def test_numerical_error_exit3_with_name(tmp_path):
    cfg = {"lattice": {"d": 1, "b": 6.283185307179586}}
    p = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["gap", "--config", p, "--out", out]) == 3
    s = read_summary(out)
    assert s["error"] == "NoGap"
    assert "results" not in s


def test_budget_error_exit3(tmp_path, monkeypatch):
    from gapeig import supercell

    monkeypatch.setattr(supercell, "MAX_PLANEWAVES", 10)
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["supercell"]["window"] = [-1.144, -0.645]
    p = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["supercell", "--config", p, "--out", out]) == 3
    assert read_summary(out)["error"] == "BasisTooLarge"


def test_explicit_window_accepted(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["supercell"]["window"] = [-1.1442549263927626, -0.6450826051490102]
    p = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["supercell", "--config", p, "--out", out]) == 0
    s = read_summary(out)
    assert len(s["results"]["runs"][0]["interior"]) == 2


def test_bad_window_order_exit2(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["supercell"]["window"] = [1.0, -1.0]
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["supercell", "--config", p, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "window, gap_file",
    [
        ("gap.json", b'{"alpha": -0.6, "beta": -1.1}'),
        ("gap.json", b'{"alpha": "x", "beta": -0.6}'),
        ("gap.json", b'{"alpha": NaN, "beta": -0.6}'),
        ("gap.json", b'{"alpha": -1.1, "be'),
        ("gap.json", b'[-1.1, -0.6]'),
        ("gap.json", b'{"alpha": 1' + b"0" * 400 + b', "beta": -0.6}'),
        ("gap.json", b"\xff\xfe not text"),
        ([float("-inf"), -0.6], None),
        ([-1.1, float("inf")], None),
    ],
    ids=["reversed", "non-numeric", "nan", "truncated", "no-fields", "huge-int", "not-text",
         "explicit-inf", "explicit-inf-beta"],
)
def test_bad_window_exit2_writes_nothing(tmp_path, capsys, window, gap_file):
    # a window file is checked as an explicit window is: two finite numbers
    # alpha < beta, or a config error before anything is written
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["supercell"]["window"] = window
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    out.mkdir()
    if gap_file is not None:
        (out / "gap.json").write_bytes(gap_file)
    assert cli.main(["supercell", "--config", p, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ([] if gap_file is None else ["gap.json"])


@pytest.mark.parametrize("method", ["gap", "bands"])
def test_J_max_beyond_fiber_size_exit2(tmp_path, capsys, method):
    # M_pw = 1 gives fibers of 3 planewaves, fewer than the J_max = 4 bands asked for
    cfg = read_cfg(GOLDEN_1D)
    cfg[method].update(M_pw=1, J_max=4)
    out = tmp_path / "out"
    assert cli.main([method, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert os.listdir(out) == []
    err = capsys.readouterr().err
    assert "J_max" in err and "M_pw" in err


@pytest.mark.parametrize(
    "edit, words",
    [({"L": [4], "t": [-0.5]}, "config error"), ({"J": 60, "n_c": 50}, "n_c = 50"),
     ({"J": 65}, "65 planewaves")],
    ids=["negative-t", "J-beyond-p1-fiber", "J-beyond-reference-fiber"],
)
def test_augment_beyond_discretization_exit2(tmp_path, capsys, edit, words):
    # a negative offset would leave a domain of fewer than 4 periods, and
    # J + 1 bands must fit in both fibers the projectors are built from:
    # config errors before any work, not tracebacks
    cfg = read_cfg(GOLDEN_1D)
    cfg["augment"].update(edit, window=[-1.144, -0.645])
    out = tmp_path / "out"
    assert cli.main(["augment", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []
    assert words in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, words",
    [({"L": [70]}, "L = 70"), ({"L": [10, 64]}, "L = 64"),
     ({"t": [0.0, 0.333]}, "t = 0.333")],
    ids=["domain-beyond-window", "second-domain-at-window-edge", "t-off-element-grid"],
)
def test_augment_domain_outside_window_exit2(tmp_path, capsys, edit, words):
    # every (L, t) is checked against the projector window before the
    # projector is built: exit 2 with nothing written, not a numerical error
    cfg = read_cfg(GOLDEN_1D)
    cfg["augment"].update(edit, window=[-1.144, -0.645])
    out = tmp_path / "out"
    assert cli.main(["augment", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []
    err = capsys.readouterr().err
    assert "config error" in err and words in err


@pytest.mark.parametrize("method", ["galerkin", "pollution-scan"])
def test_galerkin_offset_off_grid_exit2(tmp_path, capsys, monkeypatch, method):
    # t = 0.333 is not a multiple of 1/n_c: refused as augment refuses it,
    # before the reference supercell is solved
    def no_reference(*args):
        raise AssertionError("the reference was solved before the meshes were checked")

    monkeypatch.setattr(cli, "_reference_values", no_reference)
    cfg = read_cfg(GOLDEN_1D)
    cfg[method].update(window=[-1.144, -0.645], t=0.333, n_c=100, reference={"L": 20})
    out = tmp_path / "out"
    assert cli.main([method, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []
    err = capsys.readouterr().err
    assert "config error" in err and "t = 0.333" in err


@pytest.mark.parametrize(
    "method, module, budget",
    [("galerkin", "fem1d", "MAX_NODES"), ("dislocation", "fem1d", "MAX_NODES"),
     ("augment", "augment", "MAX_FIBER_NODES")],
)
def test_p1_budget_exit3(tmp_path, monkeypatch, method, module, budget):
    # a P1 size above its budget is a numerical error, as the planewave
    # budget is, raised before any pencil or fiber is formed
    from gapeig import eigcore, fem1d

    mod = {"fem1d": fem1d, "augment": augment}[module]
    monkeypatch.setattr(mod, budget, 30)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved above the budget")

    monkeypatch.setattr(eigcore, "solve_window", no_solve)
    monkeypatch.setattr(eigcore, "solve_lowest", no_solve)
    # the projector's fibers are solved by fem_fiber, not through eigcore
    monkeypatch.setattr(augment, "fem_fiber", no_solve)
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg[method]["window"] = [-1.144, -0.645]
    out = str(tmp_path / "out")
    assert cli.main([method, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 3
    s = read_summary(out)
    assert s["error"] == "BasisTooLarge" and "budget" in s["message"]


def test_mismatched_supercell_below_resolution_exit2(tmp_path, capsys):
    # round(4 * 3) = 12 < 4 * (3 + 0.5): refused before any solve
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["supercell"] = {"window": [-1.144, -0.645], "L": 3, "t": 0.5, "ratio": 4}
    out = tmp_path / "out"
    assert cli.main(["supercell", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert os.listdir(out) == []
    assert "ratio" in capsys.readouterr().err


def test_supercell_scan_with_offset_exit2(tmp_path, capsys):
    # the convergence scan runs commensurate cells only, so a t would be
    # ignored by the solves while summary.json echoed it: refused up front
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["supercell"] = {"window": [-1.144, -0.645], "L": [10, 20], "t": 0.5, "ratio": 16}
    out = tmp_path / "out"
    assert cli.main(["supercell", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert os.listdir(out) == []
    assert "t = 0.5" in capsys.readouterr().err


def test_fiber_form_in_summary(tmp_path):
    # the 1D potential has no inversion centre and keeps complex fibers; the
    # 2D one is swept about its centre (0, (pi/2 - 1)/2) in real form
    out = tmp_path / "one"
    assert cli.main(["gap", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", str(out)]) == 0
    diag = read_summary(out)["diagnostics"]
    assert diag["fiber_form"] == "complex" and diag["inversion_centre"] is None
    cfg = read_cfg(GOLDEN_2D)
    cfg["bands"] = {"M_pw": 3, "M_q": 4, "J_max": 3}
    out = tmp_path / "two"
    assert cli.main(["bands", "--config", write_cfg(tmp_path, cfg, "two.json"), "--out", str(out)]) == 0
    diag = read_summary(out)["diagnostics"]
    assert diag["fiber_form"] == "real"
    assert diag["inversion_centre"] == pytest.approx([0.0, 0.5 * (np.pi / 2 - 1)], abs=1e-15)


def test_class_sizes_in_summary(tmp_path):
    # the band sweep reports the mode classes its fibers split into (one in
    # 1D, two in 2D, where V also has period pi in y), and the matrix-free
    # supercell the blocks of its preconditioner
    out = tmp_path / "one"
    assert cli.main(["gap", "--config", write_cfg(tmp_path, SMALL_CFG), "--out", str(out)]) == 0
    assert read_summary(out)["diagnostics"]["fiber_classes"] == [33]
    cfg = read_cfg(GOLDEN_2D)
    cfg["bands"] = {"M_pw": 3, "M_q": 4, "J_max": 3}
    cfg["supercell"] = ITERATIVE_2D
    path = write_cfg(tmp_path, cfg, "two.json")
    assert cli.main(["bands", "--config", path, "--out", str(tmp_path / "two")]) == 0
    assert read_summary(tmp_path / "two")["diagnostics"]["fiber_classes"] == [21, 28]
    assert cli.main(["supercell", "--config", path, "--out", str(tmp_path / "three")]) == 0
    diag = read_summary(tmp_path / "three")["diagnostics"]
    assert diag["preconditioner_blocks"] == [20, 24, 25, 28, 48, 52]
    assert sum(diag["preconditioner_blocks"]) == diag["n_planewaves"]


def test_console_entry_point(tmp_path):
    # exit code and stderr flow through the installed script path
    cfg = write_cfg(tmp_path, {"lattice": {"d": 1, "b": 6.283185307179586}})
    proc = subprocess.run(
        [sys.executable, "-m", "gapeig.cli", "gap", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "NoGap" in proc.stderr


def _loaded_after(tmp_path, methods, prefixes, cfg=SMALL_CFG):
    """Modules under the given package names loaded by a fresh process that
    runs the subcommands on cfg."""
    cfg = write_cfg(tmp_path, cfg)
    script = (
        "import sys\n"
        "from gapeig import cli\n"
        "cli.build_problem(cli.load_config(sys.argv[1]))\n"
        "for method in sys.argv[3:]:\n"
        "    assert cli.main([method, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in %r))\n" % (prefixes,)
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path / "out")] + methods,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_gap_loads_no_scipy(tmp_path):
    # locating the gap needs numpy alone; scipy loads only with the
    # subcommands that solve P1 pencils or 2D supercells, and the thread
    # pool (concurrent.futures) only with threads > 1
    assert _loaded_after(tmp_path, ["gap"], ("scipy", "concurrent")) == "[]"


def test_p1_subcommands_load_only_scipy_flapack(tmp_path):
    # the P1 pencils are factored by LAPACK's tridiagonal LU, which gapeig.lapack
    # reaches in scipy's compiled LAPACK wrappers: the subcommands that solve
    # them load that extension and no scipy package
    methods = ["gap", "galerkin", "pollution-scan", "dislocation", "augment"]
    assert _loaded_after(tmp_path, methods, ("scipy",)) == "['scipy.linalg._flapack']"


def test_supercell_1d_loads_no_scipy(tmp_path):
    # the 1D supercell solves its fiber form with numpy alone
    assert _loaded_after(tmp_path, ["gap", "supercell"], ("scipy", "concurrent")) == "[]"


def test_supercell_2d_loads_no_scipy(tmp_path):
    # the matrix-free 2D supercell runs its GMRES and block Lanczos on numpy alone
    cfg = read_cfg(GOLDEN_2D)
    cfg["supercell"] = ITERATIVE_2D
    assert _loaded_after(tmp_path, ["supercell"], ("scipy", "concurrent"), cfg) == "[]"


def test_supercell_1d_loads_no_numpy_random(tmp_path):
    # the Lanczos start vectors are Weyl sequences, so numpy.random stays
    # unloaded; the mode classes take their sizes without numpy.ma
    loaded = _loaded_after(tmp_path, ["gap", "supercell"], ("numpy",))
    assert "'numpy.random'" not in loaded and "'numpy.ma'" not in loaded


def test_supercell_2d_loads_no_numpy_random_or_ma(tmp_path):
    # the same for the 2D sweep, with its split classes, and the matrix-free supercell
    cfg = read_cfg(GOLDEN_2D)
    cfg["gap"] = {"J": 1, "M_pw": 3, "M_q": 6}
    cfg["supercell"] = ITERATIVE_2D
    loaded = _loaded_after(tmp_path, ["gap", "supercell"], ("numpy",), cfg)
    assert "'numpy.random'" not in loaded and "'numpy.ma'" not in loaded


def test_valid_config_loads_no_jsonschema():
    # jsonschema is imported only to explain a config the checker rejects
    script = (
        "import sys\n"
        "from gapeig import cli\n"
        "for path in sys.argv[1:]:\n"
        "    cli.load_config(path)\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'jsonschema'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, GOLDEN_1D, GOLDEN_2D], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 25), st.sampled_from([0.0, 1.0, 2.0, -0.5, 2.5, 1e300]),
    st.text(max_size=3), st.sampled_from(["cos", "sin", "gap.json", "auto", "halfline+", "junction"]),
    st.lists(st.integers(-2, 3), max_size=3), st.lists(st.floats(-2, 2), max_size=3),
)


def _paths(x, prefix=()):
    """Every path into a JSON value, the value itself first."""
    yield prefix
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


@st.composite
def _mutated_configs(draw):
    cfg = json.loads(json.dumps(draw(st.sampled_from([SMALL_CFG, read_cfg(GOLDEN_1D), read_cfg(GOLDEN_2D)]))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))[1:]))
        parent = cfg
        for k in path[:-1]:
            parent = parent[k]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["sigma", "window", "extra", "L", "phase"]))] = draw(_JSON_VALUES)
        else:
            parent.append(draw(_JSON_VALUES))
    return cfg


@given(_mutated_configs())
@settings(max_examples=300, deadline=None)
def test_config_checker_implies_jsonschema(cfg):
    # a config the fast checker accepts is valid for jsonschema, so skipping
    # jsonschema for it loses nothing
    try:
        fast = cli._conforms(cfg, cli.SCHEMA)
    except cli._Unsupported:
        fast = False
    if fast:
        jsonschema.validate(cfg, cli.SCHEMA)


def test_csv_floats_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["gap", "--config", cfg, "--out", out]) == 0
    assert cli.main(["supercell", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "supercell.csv")) as f:
        rows = list(csv.DictReader(f))
    s = read_summary(out)
    got = sorted(float(r["eigenvalue"]) for r in rows)
    want = sorted(s["results"]["runs"][0]["eigenvalues"])
    assert got == want  # repr round-trips exactly


def _load_layers():
    """perfbench/layers.py, imported from its file without changing it."""
    path = os.path.join(ROOT, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_perfbench_tracer_still_sees_supercell_layers(tmp_path):
    # the tracer swaps supercell.spla, which is imported lazily and no
    # longer called; both the 1D fiber-form and the 2D matrix-free solves
    # must stay inside traced layers
    from gapeig import supercell

    layers = _load_layers()
    cfg1 = read_cfg(GOLDEN_1D)
    cfg1["supercell"]["window"] = [-1.1442549263927626, -0.6450826051490102]
    cfg2 = read_cfg(GOLDEN_2D)
    cfg2["supercell"] = ITERATIVE_2D
    tracer = layers.Tracer()
    metrics = []
    for name, cfg in (("one", cfg1), ("two", cfg2)):
        run_id = tracer.begin_run()
        with tracer.install():
            assert cli.main(["supercell", "--config", write_cfg(tmp_path, cfg, name + ".json"),
                             "--out", str(tmp_path / name)]) == 0
        spans = [sp for sp in tracer.spans if sp[5] == run_id]
        metrics.append(layers.run_metrics(spans, tracer.counters[run_id]))
    assert metrics[0]["eigcore.solve_window_calls"] == 3
    assert metrics[1]["eigcore.solve_window_calls"] == 1
    assert read_summary(tmp_path / "two")["diagnostics"]["inner_solves"] > 0
    assert [m["trace.coverage"] >= 0.98 for m in metrics] == [True, True], metrics
    import scipy.sparse.linalg

    assert supercell.spla is scipy.sparse.linalg


@pytest.mark.parametrize("method, layer", [("galerkin", "fem1d.n_dof"),
                                           ("dislocation", "fem1d.n_dof"),
                                           ("augment", "augment.n_aug")])
def test_perfbench_tracer_sees_p1_layers(tmp_path, method, layer):
    # the P1 routes return eigcore's windowed result, whose length,
    # residual bound and diagnostics the tracer's counters read.  Coverage
    # is a timing ratio, so its bound holds for the median of three runs,
    # which one run on a busy host can miss
    layers = _load_layers()
    cfg = read_cfg(GOLDEN_1D)
    cfg[method]["window"] = [-1.1442549263927626, -0.6450826051490102]
    config = write_cfg(tmp_path, cfg)
    tracer = layers.Tracer()
    coverage = []
    for run in range(3):
        run_id = tracer.begin_run()
        with tracer.install():
            assert cli.main([method, "--config", config, "--out", str(tmp_path / str(run))]) == 0
        counters = tracer.counters[run_id]
        for name in (layer, "eigcore.solve_window_calls", "eigcore.window_returned"):
            assert counters[name] > 0, (name, counters)
        metrics = layers.run_metrics([sp for sp in tracer.spans if sp[5] == run_id], counters)
        coverage.append(metrics["trace.coverage"])
    assert sorted(coverage)[1] >= 0.98, coverage


def test_perfbench_selftest_passes(tmp_path):
    # the benchmark's own tests run each workload and its output checks
    # (check_pollution, check_augment, check_defect) on real outputs of this
    # tree, so a change to what the subcommands write is caught here too
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_build_problem_leaves_perturbation_defaults_to_model(tmp_path):
    # Perturbation defaults, converts and checks the config's terms itself
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["perturbation"].append({"coefficient": 2, "factors": [[1, 0]]})
    _, _, W = cli.build_problem(cfg)
    assert W.terms == [(-1.0, [(2.0, 2)], (0.0,), 1.0), (2.0, [(1.0, 0)], (0.0,), 1.0)]
    assert [type(x) for x in W.terms[1][1][0] + W.terms[1][2]] == [float, int, float]
