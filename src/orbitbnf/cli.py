"""Command-line front end: normal forms, symbol calculus, traces, oracle runs.

Conventions shared by every subcommand
--------------------------------------
* Transverse actions are ``p_i = (x_i^2 + xi_i^2) / 2``, the time variable
  has period ``2*pi``, and ``hbar`` carries weight 2 in all truncations.
* A problem config is a JSON object (see the README for the full schema).
  The ``hamiltonian`` block lists perturbation terms only: each subcommand
  assembles ``E + theta . p + tau`` -- or its operator analogue
  ``E + theta . (a+ a + hbar/2) + D_t`` -- from ``E`` and ``theta`` and adds
  the listed terms on top.
* Outputs are deterministic: identical configs produce byte-identical
  tables.  Timings and environment data go to the run manifest only, so the
  manifest never breaks table reproducibility.

Exit codes
----------
0   success
1   verification failure (``verify`` found a failing check)
2   invalid config, inputs, or truncation orders
3   resonance obstruction (small divisor below threshold)
4   ill-conditioned or inconsistent trace inversion
5   oracle window unsafe or quadrature coverage failure
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .bridge import weyl_of_functional_calculus
from .classical import birkhoff_classical, birkhoff_semiclassical, h0_series
from .errors import (
    CoverageError,
    IllConditionedError,
    InconsistentDataError,
    OrbitBNFError,
    ResonanceError,
    UnsafeWindowError,
)
from .graded import _read_index, _read_real, require_symmetric
from .normalform import NormalForm
from .oracle import BasisWindow, _couples_fourier, quasi_eigenvalues
from .quantum import birkhoff_quantum, h0_word
from .series import FTSeries, nonresonance_margin
from .traces import (
    GaussianBump,
    TraceExpansion,
    forward_trace_expansion,
    invert_trace_expansion,
)
from .words import WordPoly

DEFAULT_TOLERANCES = {
    "margin_threshold": 1e-9,
    "term_threshold": 1e-9,
    "cond_threshold": 1e10,
    "residual_tol": 1e-6,
    "drift_tol": 1e-10,
}


class _Run:
    """Collects output files and timings for one subcommand invocation."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.outputs = {}
        self.timings = {}

    def write(self, name, text):
        os.makedirs(self.outdir, exist_ok=True)
        path = os.path.join(self.outdir, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        self.outputs[name] = hashlib.sha256(text.encode()).hexdigest()
        return path

    def write_manifest(self, payload):
        os.makedirs(self.outdir, exist_ok=True)
        path = os.path.join(self.outdir, "manifest.json")
        with open(path, "w", newline="") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def _load_config(path):
    if path is None:
        raise ValueError("this subcommand requires --config PATH")
    try:
        with open(path) as fh:
            text = fh.read()
        cfg = json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    return _json_object(cfg, f"config {path}"), text


def _json_object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _block(cfg, name, missing=None):
    """The object under cfg[name]: {} when absent, or ValueError(missing) if given."""
    block = cfg.get(name)
    if block is None:
        if missing:
            raise ValueError(missing)
        return {}
    return _json_object(block, f"config block {name!r}")


def _load_tolerances(path):
    tol = dict(DEFAULT_TOLERANCES)
    if path is None:
        return tol
    with open(path) as fh:
        overrides = _json_object(json.load(fh), f"tolerance overrides {path}")
    for key, value in overrides.items():
        if key not in tol:
            raise ValueError(
                f"unknown tolerance {key!r}; known: {sorted(tol)}"
            )
        tol[key] = _read_real(value, f"tolerance {key!r}", "> 0")
    return tol


def _theta(cfg):
    theta = cfg.get("theta")
    if not theta:
        raise ValueError("config needs a non-empty 'theta' list")
    return tuple(_read_real(v, "setting 'theta'") for v in theta)


def _rot(cfg, need, tol):
    theta = _theta(cfg)
    order = max(need, _read_index(cfg.get("resonance_order", need), "setting 'resonance_order'"))
    return nonresonance_margin(theta, order, threshold=tol["margin_threshold"])


def _check_terms(records, dim, what):
    if not isinstance(records, list):
        raise ValueError(f"{what}_terms must be a list of JSON objects")
    for rec in records:
        _json_object(rec, f"{what} term {rec!r}")
        if len(rec.get("mu", ())) != dim or len(rec.get("nu", ())) != dim:
            raise ValueError(
                f"{what} term {rec} has mu/nu of wrong length (dim = {dim})"
            )
        if "re" not in rec:
            raise ValueError(f"{what} term {rec} is missing the coefficient 're'")


def _series_hamiltonian(cfg, rot, cap):
    terms = _block(cfg, "hamiltonian").get("series_terms", [])
    _check_terms(terms, rot.dim, "series")
    H = h0_series(rot, _read_real(cfg.get("E", 0.0), "setting 'E'"), cap)
    H = H + FTSeries.from_records(rot.dim, terms, cap)
    require_symmetric(H, "the series Hamiltonian")
    return H


def _word_hamiltonian(cfg, rot, cap):
    terms = _block(cfg, "hamiltonian").get("word_terms", [])
    _check_terms(terms, rot.dim, "word")
    H = h0_word(rot, _read_real(cfg.get("E", 0.0), "setting 'E'"), cap)
    return H + WordPoly.from_records(rot.dim, terms, cap)


def _normal_form_arg(cfg, base_dir):
    block = _block(cfg, "normal_form", "config needs a 'normal_form' block")
    if "csv" in block:
        path = os.path.join(base_dir, block["csv"])
        with open(path) as fh:
            return NormalForm.from_csv(fh.read())
    return NormalForm.from_records(
        _read_index(block["dim"], "setting 'normal_form.dim'"),
        block["records"],
        route=block.get("route"),
    )


def _jets(cfg):
    """Build {l: jet} plus the bump table from the config's jets block."""
    block = _block(cfg, "jets", "config needs a 'jets' block (ls, width[s], depth)")
    ls = list(block.get("ls", []))
    if not ls:
        raise ValueError("jets block needs a non-empty 'ls' list")
    depth = _read_index(block.get("depth", 12), "setting 'jets.depth'")
    if "widths" in block:
        widths = list(block["widths"])
        if len(widths) != len(ls):
            raise ValueError("jets 'widths' must match 'ls' in length")
    else:
        widths = [block.get("width", 0.7)] * len(ls)
    bumps = {b.l: b for b in (GaussianBump(l, width=w) for l, w in zip(ls, widths))}
    return {l: b.jet(depth) for l, b in bumps.items()}, bumps


# -- subcommand bodies ----------------------------------------------------------


def _bnf_orders(cfg, tol):
    """(target weight, working weight, certified rotation data) of a config."""
    orders = _block(cfg, "orders")
    weight = _read_index(orders.get("weight", 6), "setting 'orders.weight'")
    work = _read_index(orders.get("work_weight", weight), "setting 'orders.work_weight'")
    return weight, work, _rot(cfg, weight, tol)


def _bnf_outputs(run, what, rot, nf, generators, remainder, **extra):
    """Write the table and generator records of a normal-form run; (summary, details)."""
    run.write("normal_form.csv", nf.to_csv())
    records = [F.to_records() for F in generators]
    run.write("generators.json", json.dumps(records, separators=(",", ":")) + "\n")
    count = len(generators)
    size = remainder.max_abs_coeff()
    extra.update(margin=rot.margin, remainder_max_coeff=size, generator_count=count)
    summary = (
        f"{what}: {len(nf.to_records())} entries, {count} generators, "
        f"remainder max |c| = {size:.3e}"
    )
    return summary, extra


def _cmd_bnf_classical(cfg, tol, run, base_dir):
    weight, work, rot = _bnf_orders(cfg, tol)
    H = _series_hamiltonian(cfg, rot, work)
    nf, gens, remainder = birkhoff_classical(H, rot, weight, work, tol["margin_threshold"])
    what = f"classical normal form through weight {weight}"
    return _bnf_outputs(run, what, rot, nf, gens, remainder)


def _cmd_bnf_semiclassical(cfg, tol, run, base_dir):
    weight, work, rot = _bnf_orders(cfg, tol)
    korder = _read_index(_block(cfg, "orders").get("hbar", 2), "setting 'orders.hbar'")
    H = _series_hamiltonian(cfg, rot, work)
    nf, gens, remainder = birkhoff_semiclassical(
        H, rot, weight, korder, work, tol["margin_threshold"]
    )
    what = f"semiclassical normal form through weight {weight}, hbar^{korder}"
    return _bnf_outputs(run, what, rot, nf, gens, remainder, hbar_order=korder)


def _cmd_bnf_quantum(cfg, tol, run, base_dir):
    weight, work, rot = _bnf_orders(cfg, tol)
    H = _word_hamiltonian(cfg, rot, work)
    h, gens, remainder = birkhoff_quantum(H, rot, weight, work, tol["margin_threshold"])
    what = f"quantum normal form through grade {weight}"
    return _bnf_outputs(run, what, rot, h, gens, remainder)


def _cmd_weyl_of_h(cfg, tol, run, base_dir):
    korder = _read_index(_block(cfg, "orders").get("hbar", 2), "setting 'orders.hbar'")
    h = _normal_form_arg(cfg, base_dir)
    out = weyl_of_functional_calculus(h, korder)
    run.write("weyl_symbol.csv", out.to_csv())
    summary = (
        f"Weyl symbol of the functional calculus through hbar^{korder}: "
        f"{len(out.to_records())} entries"
    )
    return summary, {"hbar_order": korder}


def _cmd_trace_forward(cfg, tol, run, base_dir):
    M = _read_index(_block(cfg, "orders").get("M", 4), "setting 'orders.M'")
    nf = _normal_form_arg(cfg, base_dir)
    jets, bumps = _jets(cfg)
    theta = _theta(cfg) if "theta" in cfg else nf.theta()
    if len(theta) != nf.dim or any(abs(a - b) > 1e-9 for a, b in zip(theta, nf.theta())):
        raise ValueError(
            f"config theta {list(theta)} does not match the normal form's "
            f"linear part {list(nf.theta())}"
        )
    tr = forward_trace_expansion(
        nf, [jets[l] for l in sorted(jets)], M, tol["term_threshold"]
    )
    run.write("trace.csv", tr.to_csv())
    jet_table = {str(l): {"width": bumps[l].width, "depth": jets[l].depth}
                 for l in sorted(jets)}
    summary = (
        f"trace coefficients d_l^m for l in {sorted(jets)} and m < {M}: "
        f"{len(tr.entries)} values"
    )
    return summary, {"jets": jet_table, "M": M}


def _cmd_trace_invert(cfg, tol, run, base_dir):
    M = _read_index(_block(cfg, "orders").get("M", 4), "setting 'orders.M'")
    k_max = _read_index(_block(cfg, "trace").get("k_max", 0), "setting 'trace.k_max'")
    path = cfg.get("trace_csv")
    if path is None:
        raise ValueError("config needs 'trace_csv' (path to a d_l^m table)")
    with open(os.path.join(base_dir, path)) as fh:
        text = fh.read()
    rot = _rot(cfg, max(2, M), tol)
    jets, _bumps = _jets(cfg)
    tr = TraceExpansion.from_csv(text, jets)
    nf, report = invert_trace_expansion(
        tr,
        rot,
        M,
        k_max=k_max,
        cond_threshold=tol["cond_threshold"],
        residual_tol=tol["residual_tol"],
        threshold=tol["term_threshold"],
    )
    run.write("recovered.csv", nf.to_csv())
    run.write(
        "invert_report.json",
        json.dumps(
            {
                "condition_numbers": {
                    str(m): v for m, v in report["condition_numbers"].items()
                },
                "residuals": {str(m): v for m, v in report["residuals"].items()},
                "unknown_counts": {
                    str(m): v for m, v in report["unknown_counts"].items()
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    worst = max(report["condition_numbers"].values(), default=1.0)
    summary = (
        f"recovered {len(nf.to_records())} coefficients through order {M} "
        f"(k_max = {k_max}), worst condition number {worst:.3e}"
    )
    return summary, {"k_max": k_max, "M": M}


def _cmd_oracle_spectrum(cfg, tol, run, base_dir):
    block = _block(
        cfg, "oracle", "config needs an 'oracle' block (hermite_cut, fourier_cut, hbar, window)"
    )
    if "drift_tol" in block:
        raise ValueError("set drift_tol with --tolerance-overrides, not in the 'oracle' block")
    w = BasisWindow(block["hermite_cut"], block["fourier_cut"], block["hbar"])
    lo, hi = (_read_real(v, "setting 'oracle.window'") for v in block["window"])
    weight = _read_index(_block(cfg, "orders").get("weight", 6), "setting 'orders.weight'")
    rot = _rot(cfg, weight, tol)
    H = _word_hamiltonian(cfg, rot, float("inf"))
    evs = quasi_eigenvalues(H, w, (lo, hi), drift_tol=tol["drift_tol"])
    lines = ["index,eigenvalue"]
    lines += [f"{i},{v!r}" for i, v in enumerate(evs)]
    run.write("spectrum.csv", "\n".join(lines) + "\n")
    summary = (
        f"{len(evs)} safe quasi-eigenvalues in [{lo}, {hi}] at hbar = {w.hbar}"
    )
    return summary, {
        "hbar": w.hbar,
        "window": [lo, hi],
        "count": len(evs),
        "working_states": w.dimension(H.dim),
        "doubled_states": w.doubled(_couples_fourier(H)).dimension(H.dim),
    }


def _cmd_verify(cfg, tol, run, base_dir):
    from .acceptance import format_result, run_all

    results = run_all()
    lines = [format_result(r) for r in results]
    for line in lines:
        print(line)
    run.write("acceptance.txt", "\n".join(lines) + "\n")
    failures = [r for r in results if not r.passed]
    summary = (
        f"{len(results) - len(failures)} of {len(results)} checks passed"
    )
    return summary, {"failures": len(failures)}


_COMMANDS = {
    "bnf-classical": _cmd_bnf_classical,
    "bnf-semiclassical": _cmd_bnf_semiclassical,
    "bnf-quantum": _cmd_bnf_quantum,
    "weyl-of-h": _cmd_weyl_of_h,
    "trace-forward": _cmd_trace_forward,
    "trace-invert": _cmd_trace_invert,
    "oracle-spectrum": _cmd_oracle_spectrum,
    "verify": _cmd_verify,
}

_HELP = {
    "bnf-classical": "classical normal form of E + theta.p + tau + perturbation",
    "bnf-semiclassical": "normal form with the hbar-graded bracket, explicit hbar powers",
    "bnf-quantum": "operator normal form of the word Hamiltonian",
    "weyl-of-h": "Weyl symbol of the functional calculus of a normal form",
    "trace-forward": "trace coefficients d_l^m from a normal form and jets",
    "trace-invert": "recover normal-form coefficients from a d_l^m table",
    "oracle-spectrum": "safe quasi-eigenvalues of the word Hamiltonian in a window",
    "verify": "run the acceptance checks (exit 1 on any failure)",
}


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="problem config (JSON)")
    common.add_argument(
        "--out",
        metavar="DIR",
        default="orbitbnf_out",
        help="output directory (default: orbitbnf_out)",
    )
    common.add_argument(
        "--tolerance-overrides",
        metavar="PATH",
        help="JSON object overriding named tolerances "
        f"(known: {sorted(DEFAULT_TOLERANCES)})",
    )

    parser = argparse.ArgumentParser(
        prog="orbitbnf",
        description=(
            "Normal forms near an elliptic periodic orbit, symbol calculus, "
            "trace coefficients, and a truncated-basis oracle.  Conventions: "
            "p_i = (x_i^2 + xi_i^2)/2, time period 2*pi, hbar has weight 2."
        ),
        epilog=(
            "exit codes: 0 success, 1 verification failure, 2 bad config, "
            "3 resonance, 4 ill-conditioned inversion, 5 unsafe oracle window"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=_HELP[name])

    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    run = _Run(args.out)
    started = time.perf_counter()
    try:
        tol = _load_tolerances(args.tolerance_overrides)
        if args.command == "verify" and args.config is None:
            cfg, cfg_text, base_dir = {}, "", "."
        else:
            cfg, cfg_text = _load_config(args.config)
            base_dir = os.path.dirname(os.path.abspath(args.config))
        summary, extra = handler(cfg, tol, run, base_dir)
    except ResonanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IllConditionedError, InconsistentDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (UnsafeWindowError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (OrbitBNFError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.timings[args.command] = time.perf_counter() - started
    run.write_manifest(
        {
            "command": args.command,
            "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest()
            if cfg_text
            else None,
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "tolerances": tol,
            "outputs": run.outputs,
            "timings_seconds": run.timings,
            "details": extra,
        }
    )
    print(summary)
    if args.command == "verify" and extra.get("failures"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
