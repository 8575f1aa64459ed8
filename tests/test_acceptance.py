"""Acceptance suite: one test per numbered check, plus small-coupling variants.

Checks 2 and 6 compare the normal form against the windowed matrix oracle at
cubic coupling 0.1.  At that coupling the cubic term tips the transverse well
over at action p* = theta^2/(144 eps^2) ~ 0.119, far below the actions the
windows must cover, so the oracle (correctly) refuses the window: eigenstates
above the barrier spread onto shallow basis states and quasi_eigenvalues
raises UnsafeWindowError.  Those two tests record that outcome honestly; the
*_small_coupling variants run the identical procedure at coupling 0.01, where
the barrier sits at p* ~ 11.9 and the comparison is meaningful.
"""

import math

import numpy as np
import pytest

from orbitbnf import acceptance
from orbitbnf.acceptance import _benchmark_hamiltonian, _windowed_trace
from orbitbnf.oracle import BasisWindow, quasi_eigenvalues
from orbitbnf.quantum import birkhoff_quantum
from orbitbnf.traces import forward_trace_expansion, GaussianBump

SQRT2M1 = math.sqrt(2.0) - 1.0


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in acceptance.run_all()}


def _report(results, number):
    r = results[number]
    print(acceptance.format_result(r))
    assert r.passed, r.detail


def test_check_1_homological_residuals(results):
    _report(results, 1)


def test_check_2_operator_normal_form_vs_windowed_spectrum(results):
    _report(results, 2)


def test_check_3_weyl_functional_calculus(results):
    _report(results, 3)


def test_check_4_route_equivalence(results):
    _report(results, 4)


def test_check_5_trace_round_trip(results):
    _report(results, 5)


def test_check_6_windowed_trace_hbar_regression(results):
    _report(results, 6)


def test_check_7_word_algebra_invariants(results):
    _report(results, 7)


def test_supplementary_spectrum_comparison_small_coupling():
    """Check-2 procedure at coupling 0.01 (not a numbered check).

    The missing weight-8 normal-form term dominates the error here, so the
    observed exponent sits near 4 rather than the 3.5 the numbered check
    pins at coupling 0.1."""
    H, rot = _benchmark_hamiltonian(cap=8, eps=0.01, E=1.0)
    h, _gens, _rem = birkhoff_quantum(H, rot, 6, 8)
    hbars = (0.1, 0.05, 0.025)
    errors = []
    for hbar in hbars:
        predicted = [
            h.evaluate(((mu + 0.5) * hbar,), 0.0, hbar) for mu in range(10)
        ]
        window = (1.0 + 0.05 * SQRT2M1 * hbar, 1.0 + 9.95 * SQRT2M1 * hbar)
        evs = quasi_eigenvalues(H, BasisWindow(64, 0, hbar), window,
                                drift_tol=1e-10)
        assert len(evs) == 10
        errors.append(max(abs(e - p) for e, p in zip(evs, predicted)))
    assert errors[0] < 1e-4
    slope = float(np.polyfit(np.log(hbars), np.log(errors), 1)[0])
    assert 3.0 <= slope <= 5.0, f"exponent {slope:.2f}, errors {errors}"


def test_supplementary_trace_regression_small_coupling():
    """Check-6 procedure at coupling 0.01 (not a numbered check)."""
    H, rot = _benchmark_hamiltonian(cap=8, eps=0.01, E=1.0)
    h, _gens, _rem = birkhoff_quantum(H, rot, 6, 8)
    bump = GaussianBump(1, width=0.7)
    tr = forward_trace_expansion(h, [bump.jet(14)], 4)
    plateau = (0.04, 0.9)
    hbars = [2.0**-e for e in range(4, 8)]
    errors = []
    for hbar in hbars:
        predicted = sum(tr.d(1, m) * hbar**m for m in range(3))
        value = _windowed_trace(H, h, hbar, bump, plateau, SQRT2M1)
        errors.append(abs(value - predicted))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-8
    slope = float(np.polyfit(np.log(hbars), np.log(errors), 1)[0])
    assert slope >= 2.5, f"exponent {slope:.2f}, errors {errors}"


def test_a_check_that_reaches_its_runtime_cap_fails(monkeypatch):
    """run_all times each check once and fails one whose time reaches its cap."""
    monkeypatch.setattr(acceptance, "_CHECKS", [])
    acceptance._check(1, "instant", 0)(lambda: "done")
    (result,) = acceptance.run_all()
    assert not result.passed and result.seconds >= 0.0
    assert result.detail == f"CheckFailure: runtime {result.seconds:.1f} s exceeds the 0 s cap"
    assert acceptance.format_result(result).startswith("FAIL  1. instant -- CheckFailure")
