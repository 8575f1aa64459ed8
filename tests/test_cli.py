"""Command-line front end: configs in, deterministic tables out, exit codes."""

import json
import math
import os

import pytest

from orbitbnf import cli
from orbitbnf.classical import birkhoff_classical, h0_series
from orbitbnf.cli import main
from orbitbnf.quantum import birkhoff_quantum, h0_word
from orbitbnf.series import FTSeries, nonresonance_margin
from orbitbnf.words import WordPoly

SQRT2M1 = math.sqrt(2.0) - 1.0
C3 = 2.0 ** (-1.5)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def read_nf_rows(path):
    """normal-form CSV -> {(r, s, k): coeff}."""
    rows = {}
    with open(path) as fh:
        assert fh.readline().strip() == "route,r,s,k,coeff"
        for line in fh:
            _route, r, s, k, c = line.rstrip("\n").split(",")
            rows[(tuple(int(v) for v in r.split()), int(s), int(k))] = float(c)
    return rows


def cubic_series_terms(eps):
    terms = []
    for mu, nu, mult in (((3,), (0,), 1.0), ((2,), (1,), 3.0),
                         ((1,), (2,), 3.0), ((0,), (3,), 1.0)):
        terms.append({"mu": list(mu), "nu": list(nu), "m": 0, "j": 0, "k": 0,
                      "re": eps * C3 * mult, "im": 0.0})
    return terms


def test_bnf_quantum_h0_only(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1], "E": 0.7, "orders": {"weight": 6},
    })
    out = tmp_path / "out"
    assert main(["bnf-quantum", "--config", cfg, "--out", str(out)]) == 0
    rows = read_nf_rows(out / "normal_form.csv")
    assert rows == {((0,), 0, 0): 0.7, ((1,), 0, 0): SQRT2M1, ((0,), 1, 0): 1.0}
    assert (out / "generators.json").read_text().strip() == "[]"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bnf-quantum"
    assert manifest["details"]["remainder_max_coeff"] == 0.0
    assert set(manifest["outputs"]) == {"normal_form.csv", "generators.json"}
    assert "quantum normal form" in capsys.readouterr().out


def test_bnf_classical_cubic_golden(tmp_path):
    eps = 1e-3
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1], "E": 1.0, "resonance_order": 8,
        "orders": {"weight": 4, "work_weight": 8},
        "hamiltonian": {"series_terms": cubic_series_terms(eps)},
    })
    out = tmp_path / "out"
    assert main(["bnf-classical", "--config", cfg, "--out", str(out)]) == 0
    rows = read_nf_rows(out / "normal_form.csv")
    expected = -30.0 * eps**2 / SQRT2M1
    assert abs(rows[((2,), 0, 0)] - expected) < 1e-9 * abs(expected)
    assert rows[((0,), 0, 0)] == 1.0
    gens = json.loads((out / "generators.json").read_text())
    assert len(gens) > 0 and all(isinstance(records, list) for records in gens)


def test_generators_json_rebuilds_the_generators(tmp_path):
    """Both series and word runs write one to_records() list per generator."""
    eps = 1e-2
    word_terms = [
        {"mu": [mu], "nu": [nu], "k": k, "re": eps * mult}
        for mu, nu, k, mult in ((3, 0, 0, 1.0), (2, 1, 0, 3.0), (1, 2, 0, 3.0),
                                (0, 3, 0, 1.0), (1, 0, 1, 3.0), (0, 1, 1, 3.0))
    ]
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1], "E": 1.0, "resonance_order": 8,
        "orders": {"weight": 6, "work_weight": 8},
        "hamiltonian": {"series_terms": cubic_series_terms(eps), "word_terms": word_terms},
    })
    rot = nonresonance_margin((SQRT2M1,), 8)
    H_series = h0_series(rot, 1.0, 8) + FTSeries.from_records(1, cubic_series_terms(eps), 8)
    H_word = h0_word(rot, 1.0, 8) + WordPoly.from_records(1, word_terms, 8)
    for command, cls, gens in (
        ("bnf-classical", FTSeries, birkhoff_classical(H_series, rot, 6, 8)[1]),
        ("bnf-quantum", WordPoly, birkhoff_quantum(H_word, rot, 6, 8)[1]),
    ):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        records = json.loads((out / "generators.json").read_text())
        rebuilt = [cls.from_records(1, recs) for recs in records]
        assert len(gens) == 4
        assert rebuilt == gens
        assert [F.min_grade() for F in rebuilt] == [3, 4, 5, 6]


def test_bnf_semiclassical_cubic_matches_classical_at_hbar_zero(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1], "E": 1.0, "resonance_order": 8,
        "orders": {"weight": 4, "work_weight": 8, "hbar": 2},
        "hamiltonian": {"series_terms": cubic_series_terms(1e-3)},
    })
    outs = {}
    for name, command in (("c", "bnf-classical"), ("s1", "bnf-semiclassical"),
                          ("s2", "bnf-semiclassical")):
        outs[name] = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(outs[name])]) == 0
    classical = read_nf_rows(outs["c"] / "normal_form.csv")
    semi = read_nf_rows(outs["s1"] / "normal_form.csv")
    assert any(k > 0 for (_r, _s, k) in semi)
    slice0 = {e: c for e, c in semi.items() if e[2] == 0}
    assert set(slice0) == set(classical)
    for e, c in classical.items():
        assert abs(slice0[e] - c) <= 1e-12
    manifest = json.loads((outs["s1"] / "manifest.json").read_text())
    assert manifest["details"]["hbar_order"] == 2
    for fname in ("normal_form.csv", "generators.json"):
        assert (outs["s1"] / fname).read_bytes() == (outs["s2"] / fname).read_bytes()


def test_reruns_write_byte_identical_tables(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1], "E": 1.0, "resonance_order": 8,
        "orders": {"weight": 4, "work_weight": 8},
        "hamiltonian": {"series_terms": cubic_series_terms(5e-3)},
    })
    outs = []
    for name in ("out1", "out2"):
        out = tmp_path / name
        assert main(["bnf-classical", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("normal_form.csv", "generators.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b
    m0 = json.loads((outs[0] / "manifest.json").read_text())
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    assert m0["outputs"] == m1["outputs"]
    assert m0["config_sha256"] == m1["config_sha256"]


def test_exit_code_2_on_bad_inputs(tmp_path, capsys):
    assert main(["bnf-classical", "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bnf-classical", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    cfg = write_config(tmp_path, "cfg.json", {"theta": [SQRT2M1]})
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"no_such_tolerance": 1.0}))
    assert main(["bnf-classical", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--tolerance-overrides", str(overrides)]) == 2
    err = capsys.readouterr().err
    assert "unknown tolerance" in err
    negative = write_config(tmp_path, "neg.json", {
        "theta": [SQRT2M1], "E": 1.0, "orders": {"weight": 4},
        "hamiltonian": {"word_terms": [
            {"mu": [-1], "nu": [0], "m": 0, "j": 0, "k": 0, "re": 1.0, "im": 0.0},
        ]},
    })
    assert main(["bnf-quantum", "--config", negative,
                 "--out", str(tmp_path / "o")]) == 2
    assert "negative exponent" in capsys.readouterr().err
    z_cubed_only = write_config(tmp_path, "zcubed.json", {
        "theta": [SQRT2M1], "E": 1.0, "orders": {"weight": 4},
        "hamiltonian": {"series_terms": [
            {"mu": [3], "nu": [0], "m": 0, "j": 0, "k": 0, "re": 3.5e-4, "im": 0.0},
        ]},
    })
    for command in ("bnf-classical", "bnf-semiclassical"):
        assert main([command, "--config", z_cubed_only,
                     "--out", str(tmp_path / "o")]) == 2
        assert "not a real symbol" in capsys.readouterr().err
    for command, field in (("bnf-quantum", "word_terms"), ("bnf-classical", "series_terms")):
        for terms in ([[1, 2]], ["x"], {"a": 1}):
            not_records = write_config(tmp_path, "terms.json", {
                "theta": [SQRT2M1], "E": 1.0, "orders": {"weight": 4},
                "hamiltonian": {field: terms},
            })
            assert main([command, "--config", not_records,
                         "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert "must be a JSON object" in err or "must be a list" in err
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["bnf-classical", "--config", str(not_object),
                 "--out", str(tmp_path / "o")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err
    assert main(["bnf-classical", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--tolerance-overrides", str(not_object)]) == 2
    assert "tolerance overrides" in capsys.readouterr().err
    for command, block in (("bnf-classical", "orders"), ("bnf-quantum", "hamiltonian"),
                           ("weyl-of-h", "normal_form"), ("trace-forward", "jets"),
                           ("trace-invert", "trace"), ("oracle-spectrum", "oracle")):
        listed = write_config(tmp_path, "listed.json", {
            "theta": [SQRT2M1], "normal_form": {"dim": 1, "records": []}, block: [6],
        })
        assert main([command, "--config", listed, "--out", str(tmp_path / "o")]) == 2
        assert f"config block '{block}' must be a JSON object" in capsys.readouterr().err
    nf = {"dim": 1, "records": [
        {"r": [1], "s": 0, "k": 0, "c": SQRT2M1}, {"r": [0], "s": 1, "k": 0, "c": 1.0},
    ]}
    fractional = write_config(tmp_path, "fractional.json", {
        "theta": [SQRT2M1], "normal_form": nf,
        "jets": {"ls": [1.5], "width": 0.7, "depth": 8}, "orders": {"M": 2},
    })
    assert main(["trace-forward", "--config", fractional, "--out", str(tmp_path / "o")]) == 2
    assert "period index l must be an integer, not 1.5" in capsys.readouterr().err
    # a fractional normal-form exponent is not read as an integer
    fractional_r = write_config(tmp_path, "fractional_r.json", {
        "normal_form": {"dim": 1, "records": [
            *nf["records"], {"r": [1.5], "s": 0, "k": 0, "c": 0.3},
        ]},
    })
    assert main(["weyl-of-h", "--config", fractional_r, "--out", str(tmp_path / "o")]) == 2
    assert "exponents must be integers" in capsys.readouterr().err
    # non-finite theta and E stop at the config boundary (JSON reads Infinity and NaN)
    for field, value in (("theta", [math.inf]), ("theta", [SQRT2M1, math.nan]), ("E", math.nan)):
        for command in ("bnf-quantum", "bnf-classical"):
            cfg = {"theta": [SQRT2M1], "E": 1.0, "orders": {"weight": 4}, field: value}
            path = write_config(tmp_path, "nonfinite.json", cfg)
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
            assert f"setting {field!r} must be finite" in capsys.readouterr().err
    # numbers given as strings are not read as numbers (float() would parse them)
    oracle = {"hermite_cut": 8, "fourier_cut": 0, "hbar": 0.1, "window": [0.7, 0.8]}
    for command, extra, text in (
        ("bnf-quantum", {"E": "1.0"}, "setting 'E' must be a real number, not '1.0'"),
        ("bnf-classical", {"theta": ["0.41"]},
         "setting 'theta' must be a real number, not '0.41'"),
        ("oracle-spectrum", {"oracle": {**oracle, "hbar": "0.1"}},
         "hbar must be a real number, not '0.1'"),
        ("oracle-spectrum", {"oracle": {**oracle, "window": ["0.7", 0.8]}},
         "setting 'oracle.window' must be a real number, not '0.7'"),
        ("trace-forward", {"jets": {"ls": [1], "width": "0.7", "depth": 8}},
         "width must be a real number, not '0.7'"),
        ("trace-forward", {"jets": {"ls": [1], "widths": ["0.7"], "depth": 8}},
         "width must be a real number, not '0.7'"),
    ):
        cfg = {"theta": [SQRT2M1], "E": 1.0, "orders": {"weight": 4, "M": 2},
               "normal_form": nf, **extra}
        path = write_config(tmp_path, "strings.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert text in capsys.readouterr().err
    # a Fourier mode past the packed-key bounds (|m| <= 127)
    wide_mode = write_config(tmp_path, "wide_mode.json", {
        "theta": [SQRT2M1], "E": 1.0, "orders": {"weight": 4},
        "hamiltonian": {"word_terms": [
            {"mu": [1], "nu": [0], "m": 200, "j": 0, "k": 0, "re": 1.0, "im": 0.0},
        ]},
    })
    assert main(["bnf-quantum", "--config", wide_mode, "--out", str(tmp_path / "o")]) == 2
    assert "past the packed-key bounds" in capsys.readouterr().err
    # non-finite coefficients stop at the library's constructors
    for command, field, coeff in (("bnf-quantum", "word_terms", {"re": math.nan}),
                                  ("bnf-classical", "series_terms", {"re": 0.0, "im": math.inf})):
        path = write_config(tmp_path, "nonfinite_terms.json", {
            "theta": [SQRT2M1], "E": 1.0, "orders": {"weight": 4},
            "hamiltonian": {field: [{"mu": [3], "nu": [0], "m": 0, "j": 0, "k": 0, **coeff}]},
        })
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "must be finite" in capsys.readouterr().err
    nan_record = {"r": [2], "s": 0, "k": 0, "c": math.nan}
    nonfinite_c = write_config(tmp_path, "nonfinite_c.json", {
        "normal_form": {"dim": 1, "records": [*nf["records"], nan_record]},
    })
    assert main(["weyl-of-h", "--config", nonfinite_c, "--out", str(tmp_path / "o")]) == 2
    assert "must be finite" in capsys.readouterr().err
    # coefficients given as strings are not parsed
    string_c = {"r": [2], "s": 0, "k": 0, "c": "0.3"}
    for command in ("weyl-of-h", "trace-forward"):
        path = write_config(tmp_path, "string_c.json", {
            "normal_form": {"dim": 1, "records": [*nf["records"], string_c]},
            "jets": {"ls": [1], "depth": 8},
        })
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "coefficient 'c' must be a real number, not '0.3'" in capsys.readouterr().err
    string_re = write_config(tmp_path, "string_re.json", {
        "theta": [SQRT2M1], "E": 1.0, "orders": {"weight": 4},
        "hamiltonian": {"word_terms": [{"mu": [3], "nu": [0], "re": "0.3"}]},
    })
    assert main(["bnf-quantum", "--config", string_re, "--out", str(tmp_path / "o")]) == 2
    assert "coefficient 're' must be a real number, not '0.3'" in capsys.readouterr().err
    # integer settings are read with operator.index: no truncation, no strings
    for command, name, cfg_of in (
        ("bnf-classical", "resonance_order", lambda v: {"resonance_order": v}),
        ("weyl-of-h", "normal_form.dim", lambda v: {"normal_form": {**nf, "dim": v}}),
        ("trace-forward", "jets.depth", lambda v: {"jets": {"ls": [1], "depth": v}}),
        ("bnf-classical", "orders.weight", lambda v: {"orders": {"weight": v}}),
        ("bnf-quantum", "orders.work_weight",
         lambda v: {"orders": {"weight": 4, "work_weight": v}}),
        ("bnf-semiclassical", "orders.hbar", lambda v: {"orders": {"weight": 4, "hbar": v}}),
        ("trace-forward", "orders.M", lambda v: {"orders": {"M": v}}),
        ("trace-invert", "trace.k_max", lambda v: {"trace": {"k_max": v}}),
    ):
        for value in (8.7, 2.0, "8"):
            cfg = {"theta": [SQRT2M1], "E": 1.0, "normal_form": nf,
                   "jets": {"ls": [1], "depth": 8}, **cfg_of(value)}
            path = write_config(tmp_path, "setting.json", cfg)
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
            assert f"setting {name!r} must be an integer, not {value!r}" in capsys.readouterr().err


def test_readme_example_config_runs_oracle_spectrum(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("### Config schema by example", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = write_config(tmp_path, "readme.json", json.loads(block))
    assert main(["oracle-spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "spectrum.csv") as fh:
        rows = fh.read().splitlines()[1:]
    assert len(rows) >= 1


def test_exit_code_3_on_resonant_theta(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"theta": [0.5], "E": 1.0})
    assert main(["bnf-classical", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3
    assert "error" in capsys.readouterr().err


def test_exit_code_3_on_degenerate_periodic_denominator(tmp_path, capsys):
    """theta = 1/3 makes 1 - e^(2 pi i l theta) vanish at l = 3."""
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [1.0 / 3.0],
        "normal_form": {"dim": 1, "records": [
            {"r": [0], "s": 0, "k": 0, "c": 0.7},
            {"r": [1], "s": 0, "k": 0, "c": 1.0 / 3.0},
            {"r": [0], "s": 1, "k": 0, "c": 1.0},
            {"r": [2], "s": 0, "k": 0, "c": -0.2},
        ]},
        "jets": {"ls": [1, 2, 3], "width": 0.7, "depth": 8}, "orders": {"M": 3},
    })
    assert main(["trace-forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "periodic denominator" in capsys.readouterr().err


def test_trace_forward_checks_the_config_theta(tmp_path, capsys):
    """A config theta must match the normal form's linear part; it may be left out."""
    nf = {"dim": 1, "records": [
        {"r": [1], "s": 0, "k": 0, "c": SQRT2M1},
        {"r": [0], "s": 1, "k": 0, "c": 1.0},
        {"r": [2], "s": 0, "k": 0, "c": -0.2},
    ]}
    base = {"normal_form": nf, "jets": {"ls": [1, 2], "width": 0.7, "depth": 8},
            "orders": {"M": 2}}
    mismatch = write_config(tmp_path, "mismatch.json", {"theta": [0.3], **base})
    assert main(["trace-forward", "--config", mismatch, "--out", str(tmp_path / "o")]) == 2
    assert "does not match the normal form" in capsys.readouterr().err
    for name, extra in (("match.json", {"theta": [SQRT2M1]}), ("none.json", {})):
        cfg = write_config(tmp_path, name, {**extra, **base})
        out = tmp_path / ("out_" + name)
        assert main(["trace-forward", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + 2 * 2


def test_trace_forward_then_invert_round_trip(tmp_path):
    records = [
        {"r": [0], "s": 0, "k": 0, "c": 0.7},
        {"r": [1], "s": 0, "k": 0, "c": SQRT2M1},
        {"r": [0], "s": 1, "k": 0, "c": 1.0},
        {"r": [2], "s": 0, "k": 0, "c": -0.21},
        {"r": [1], "s": 1, "k": 0, "c": 0.13},
    ]
    jets = {"ls": [1, 2, 3, 4, 5, 6], "width": 0.7, "depth": 10}
    cfg_fwd = write_config(tmp_path, "fwd.json", {
        "theta": [SQRT2M1], "resonance_order": 8,
        "normal_form": {"dim": 1, "records": records},
        "jets": jets, "orders": {"M": 3},
    })
    out_fwd = tmp_path / "out_fwd"
    assert main(["trace-forward", "--config", cfg_fwd,
                 "--out", str(out_fwd)]) == 0
    trace_lines = (out_fwd / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "l,m,re,im"
    assert len(trace_lines) == 1 + 6 * 3

    cfg_inv = write_config(tmp_path, "inv.json", {
        "theta": [SQRT2M1], "resonance_order": 8,
        "trace_csv": "out_fwd/trace.csv",
        "jets": jets, "orders": {"M": 3}, "trace": {"k_max": 0},
    })
    out_inv = tmp_path / "out_inv"
    assert main(["trace-invert", "--config", cfg_inv,
                 "--out", str(out_inv)]) == 0
    rows = read_nf_rows(out_inv / "recovered.csv")
    assert abs(rows[((2,), 0, 0)] + 0.21) < 1e-9
    assert abs(rows[((1,), 1, 0)] - 0.13) < 1e-9
    report = json.loads((out_inv / "invert_report.json").read_text())
    assert set(report["condition_numbers"]) == {"1", "2"}
    assert all(v < 1e8 for v in report["condition_numbers"].values())


def test_oracle_spectrum_ladder(tmp_path):
    hbar = 0.1
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1], "E": 0.7, "resonance_order": 8,
        "oracle": {"hermite_cut": 32, "fourier_cut": 0, "hbar": hbar,
                   "window": [0.7, 0.7 + SQRT2M1 * hbar * 6.0]},
    })
    out = tmp_path / "out"
    assert main(["oracle-spectrum", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 6
    for mu, v in enumerate(values):
        assert abs(v - (0.7 + SQRT2M1 * hbar * (mu + 0.5))) < 1e-12
    details = json.loads((out / "manifest.json").read_text())["details"]
    assert (details["working_states"], details["doubled_states"]) == (33, 65)


def test_oracle_spectrum_counts_two_mode_states_on_the_simplex(tmp_path):
    """hermite_cut bounds the total quantum number: C(12, 2) = 66 working
    and C(22, 2) = 231 doubled states."""
    hbar, theta = 0.1, [SQRT2M1, math.sqrt(3.0) - 1.0]
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": theta, "E": 1.0, "resonance_order": 8,
        "oracle": {"hermite_cut": 10, "fourier_cut": 0, "hbar": hbar, "window": [0.99, 1.2]},
    })
    out = tmp_path / "out"
    assert main(["oracle-spectrum", "--config", cfg, "--out", str(out)]) == 0
    values = [float(line.split(",")[1])
              for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
    levels = sorted(1.0 + hbar * (theta[0] * (a + 0.5) + theta[1] * (b + 0.5))
                    for a, b in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)))
    assert len(values) == len(levels)
    assert max(abs(v - level) for v, level in zip(values, levels)) < 1e-12
    details = json.loads((out / "manifest.json").read_text())["details"]
    assert (details["working_states"], details["doubled_states"]) == (66, 231)


def test_weyl_of_h_table(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1],
        "normal_form": {"dim": 1,
                        "records": [{"r": [2], "s": 0, "k": 0, "c": 1.0}]},
        "orders": {"hbar": 4},
    })
    out = tmp_path / "out"
    assert main(["weyl-of-h", "--config", cfg, "--out", str(out)]) == 0
    rows = read_nf_rows(out / "weyl_symbol.csv")
    assert rows == {((2,), 0, 0): 1.0, ((0,), 0, 2): -0.25}


def _oracle_config(tmp_path, **extra):
    hbar = 0.1
    return write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1], "E": 0.7, "resonance_order": 8,
        "oracle": {"hermite_cut": 32, "fourier_cut": 0, "hbar": hbar,
                   "window": [0.7, 0.7 + SQRT2M1 * hbar * 6.0], **extra},
    })


def test_oracle_spectrum_drift_tol_comes_from_the_overrides(tmp_path, monkeypatch):
    seen = []

    def fake_quasi_eigenvalues(a, w, window, drift_tol):
        seen.append(drift_tol)
        return [0.75]

    monkeypatch.setattr(cli, "quasi_eigenvalues", fake_quasi_eigenvalues)
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"drift_tol": 3e-7}))
    out = tmp_path / "out"
    assert main(["oracle-spectrum", "--config", _oracle_config(tmp_path), "--out", str(out),
                 "--tolerance-overrides", str(overrides)]) == 0
    assert seen == [3e-7]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tolerances"]["drift_tol"] == 3e-7


@pytest.mark.parametrize("override", [{"drift_tol": math.nan}, {"drift_tol": math.inf},
                                      {"drift_tol": 0.0}, {"drift_tol": -1e-10},
                                      {"margin_threshold": -math.inf}])
def test_tolerance_overrides_must_be_finite_and_positive(tmp_path, capsys, override):
    """A NaN drift_tol would switch the oracle's drift check off."""
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps(override))
    assert main(["oracle-spectrum", "--config", _oracle_config(tmp_path), "--out",
                 str(tmp_path / "o"), "--tolerance-overrides", str(overrides)]) == 2
    assert "must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "o" / "spectrum.csv").exists()


def test_oracle_block_rejects_drift_tol(tmp_path, capsys):
    cfg = _oracle_config(tmp_path, drift_tol=1e-6)
    assert main(["oracle-spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "--tolerance-overrides" in capsys.readouterr().err


@pytest.mark.parametrize("block", [{"hbar": math.inf}, {"hbar": 0.0}, {"hermite_cut": -1},
                                   {"hermite_cut": 32.5}, {"fourier_cut": 0.5}])
def test_oracle_block_rejects_a_bad_window(tmp_path, capsys, block):
    cfg = _oracle_config(tmp_path, **block)
    assert main(["oracle-spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "must be" in capsys.readouterr().err


def test_oracle_spectrum_rejects_a_word_that_is_not_symmetric(tmp_path, capsys):
    """(a+)^21 reaches only the doubled cut; it is bad input, not an unsafe window."""
    hbar = 0.1
    cfg = write_config(tmp_path, "cfg.json", {
        "theta": [SQRT2M1], "E": 0.7, "resonance_order": 8,
        "hamiltonian": {"word_terms": [{"mu": [21], "nu": [0], "re": 1e-6}]},
        "oracle": {"hermite_cut": 20, "fourier_cut": 0, "hbar": hbar,
                   "window": [0.69, 0.7 + SQRT2M1 * hbar * 5.9]},
    })
    assert main(["oracle-spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "not symmetric" in capsys.readouterr().err


def test_verify_reports_the_failing_checks(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 1
    lines = (out / "acceptance.txt").read_text().splitlines()
    assert len(lines) == 7
    assert sum(line.startswith("FAIL") for line in lines) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["details"]["failures"] == 2
