"""Trace expansions: kernel derivatives, forward assembly, inversion."""

import cmath
import math

import numpy as np
import pytest

from orbitbnf.errors import (
    IllConditionedError,
    InconsistentDataError,
    JetDepthError,
    ResonanceError,
)
from orbitbnf.normalform import NormalForm
from orbitbnf.series import nonresonance_margin
from orbitbnf.traces import (
    forward_trace_expansion,
    g_function,
    GaussianBump,
    invert_trace_expansion,
    psi_kernel,
    TestFunctionJet,  # imported by name: its __test__ = False keeps pytest from collecting it
    TraceExpansion,
)

SQRT2M1 = math.sqrt(2.0) - 1.0
SQRT3M1 = math.sqrt(3.0) - 1.0


def cauchy_psi(K, R, S, l, width, theta, rho_t, rho_th, N=128):
    """Contour-integral oracle for the assembled kernel derivative.

    Evaluates t^{K-|R|} phi_hat(t) prod_i e^{i t theta_i/2}/(1 - e^{i t theta_i})
    on a product of circles around (2 pi l, theta) and extracts the Taylor
    coefficient by Fourier averaging, so no jet arithmetic is shared with
    the implementation under test.  The radii must keep the contours away
    from the zeros of 1 - e^{i t theta_i}, which sit at t theta_i = 2 pi k.
    """
    n = len(theta)
    t0 = 2.0 * math.pi * l
    ang = 2.0 * np.pi * np.arange(N) / N
    circ = np.exp(1j * ang)
    sh_t = (-1,) + (1,) * n
    t = t0 + rho_t * circ.reshape(sh_t)
    f = (t ** (K - sum(R))) * np.exp(-((t - t0) ** 2) / (2.0 * width**2))
    w = np.exp(-1j * S * ang).reshape(sh_t)
    for i in range(n):
        sh = [1] * (1 + n)
        sh[1 + i] = -1
        th = theta[i] + rho_th * circ.reshape(sh)
        f = f * np.exp(1j * t * th / 2.0) / (1.0 - np.exp(1j * t * th))
        w = w * np.exp(-1j * R[i] * ang).reshape(sh)
    mean = (f * w).mean()
    scale = math.factorial(S)
    for ri in R:
        scale *= math.factorial(ri)
    deriv = mean * scale / (rho_t**S * rho_th ** sum(R))
    return (1j) ** ((K + S) % 4) * (1j) ** ((-sum(R)) % 4) * deriv


def test_psi_kernel_matches_contour_oracle_one_mode():
    rot = nonresonance_margin((SQRT2M1,), 8)
    jet = GaussianBump(1, 0.7).jet(8)
    for K, R, S in [
        (0, (0,), 0), (1, (0,), 0), (1, (1,), 0),
        (2, (1,), 1), (3, (2,), 2), (2, (0,), 3),
    ]:
        got = psi_kernel(K, R, S, jet, rot)
        oracle = cauchy_psi(K, R, S, 1, 0.7, (SQRT2M1,), 0.5, 0.1)
        assert abs(got - oracle) < 1e-10 * (1.0 + abs(oracle))
    # deep derivatives, at l = 1 and at l = 6 where t theta is far from 0
    # (at l = 6 a theta radius of 0.1 would reach the pole t theta = 4 pi)
    for K, R, S, l, rho_th in [(4, (3,), 6, 1, 0.1), (6, (2,), 6, 6, 0.04)]:
        got = psi_kernel(K, R, S, GaussianBump(l, 0.7).jet(8), rot)
        oracle = cauchy_psi(K, R, S, l, 0.7, (SQRT2M1,), 0.8, rho_th)
        assert abs(got - oracle) < 3e-13 * (1.0 + abs(oracle))


def test_psi_kernel_matches_contour_oracle_two_modes():
    rot = nonresonance_margin((SQRT2M1, SQRT3M1), 8)
    jet = GaussianBump(2, 0.6).jet(8)
    for K, R, S in [(1, (1, 0), 0), (2, (1, 1), 1), (2, (0, 2), 2)]:
        got = psi_kernel(K, R, S, jet, rot)
        oracle = cauchy_psi(K, R, S, 2, 0.6, (SQRT2M1, SQRT3M1), 0.3, 0.04)
        assert abs(got - oracle) < 1e-10 * (1.0 + abs(oracle))


def test_psi_kernel_matches_contour_oracle_three_modes():
    theta = (SQRT2M1, SQRT3M1, math.sqrt(5.0) - 2.0)
    rot = nonresonance_margin(theta, 8)
    got = psi_kernel(2, (1, 0, 1), 1, GaussianBump(1, 0.7).jet(8), rot)
    # N = 32: the oracle grid has N^4 complex points
    oracle = cauchy_psi(2, (1, 0, 1), 1, 1, 0.7, theta, 0.5, 0.06, N=32)
    assert abs(got - oracle) < 1e-15 * (1.0 + abs(oracle))


def test_g_function_phase_relation_to_psi_kernel():
    """g^l_{r,s} and Psi_l(|r|+1, r, s) differ by i-phases and (2 pi l)^{-|r|}."""
    rot = nonresonance_margin((SQRT2M1,), 8)
    jet = GaussianBump(1, 0.7).jet(8)
    for r, s in (((0,), 0), ((1,), 0), ((0,), 1), ((1,), 1), ((2,), 2)):
        g = g_function(r, s, jet, rot)
        psi = psi_kernel(sum(r) + 1, r, s, jet, rot)
        pred = (2.0 * math.pi) ** (-sum(r)) * (-1j) ** ((sum(r) + 2 * s + 1) % 4) * psi
        assert abs(g - pred) < 1e-14 * (1.0 + abs(g))
        # built-in complex, not a numpy scalar that would print as np.float64(...)
        assert type(g) is complex and type(psi) is complex


def test_forward_leading_amplitude_closed_form():
    """A linear normal form only has the m=0 terms phi_hat(2 pi l) G(2 pi l)."""
    for dim, theta in ((1, (SQRT2M1,)), (2, (SQRT2M1, SQRT3M1))):
        rot = nonresonance_margin(theta, 8)
        entries = {((0,) * dim, 0, 0): 0.7, ((0,) * dim, 1, 0): 1.0}
        for i in range(dim):
            r = tuple(1 if q == i else 0 for q in range(dim))
            entries[(r, 0, 0)] = theta[i]
        nf = NormalForm(dim, entries)
        tr = forward_trace_expansion(
            nf, [GaussianBump(l, 0.7).jet(8) for l in (1, 2)], 3
        )
        for l in (1, 2):
            t0 = 2.0 * math.pi * l
            G = 1.0
            for th in theta:
                G *= cmath.exp(1j * t0 * th / 2.0) / (1.0 - cmath.exp(1j * t0 * th))
            assert abs(tr.d(l, 0) - G) < 1e-12 * (1.0 + abs(G))
            assert tr.d(l, 1) == 0.0
            assert tr.d(l, 2) == 0.0


def test_forward_rejects_bare_hbar_constant():
    rot_theta = (SQRT2M1,)
    nf = NormalForm(1, {((0,), 0, 0): 0.7, ((1,), 0, 0): rot_theta[0],
                        ((0,), 1, 0): 1.0, ((0,), 0, 1): 0.05})
    with pytest.raises(ValueError, match="bare hbar"):
        forward_trace_expansion(nf, [GaussianBump(1, 0.7).jet(8)], 3)


def test_forward_rejects_a_tau_coefficient_other_than_one():
    entries = base_entries()
    entries[((0,), 1, 0)] = 0.9
    with pytest.raises(ValueError, match="tau coefficient"):
        forward_trace_expansion(NormalForm(1, entries), [GaussianBump(1, 0.7).jet(8)], 3)


def base_entries(dim=1):
    return {((0,), 0, 0): 0.7, ((1,), 0, 0): SQRT2M1, ((0,), 1, 0): 1.0}


def test_forward_invert_round_trip_hbar_free():
    entries = base_entries()
    entries.update({((2,), 0, 0): -0.21, ((1,), 1, 0): 0.13, ((0,), 2, 0): 0.08,
                    ((3,), 0, 0): 0.017, ((2,), 1, 0): -0.009})
    nf = NormalForm(1, entries)
    jets = [GaussianBump(l, 0.7).jet(10) for l in range(1, 7)]
    tr = forward_trace_expansion(nf, jets, 4)
    rot = nonresonance_margin((SQRT2M1,), 8)
    rec, report = invert_trace_expansion(tr, rot, 4, k_max=0)
    assert rec.route == "inverted"
    for (r, s, k), c in entries.items():
        if sum(r) + s + k <= 1:
            continue
        assert abs(rec.coeff(r, s, k) - c) < 1e-10 * (1.0 + abs(c))
    for m in (1, 2, 3):
        assert report["condition_numbers"][m] < 1e8
        assert report["residuals"][m] < 1e-10


def test_forward_invert_round_trip_with_hbar_entries():
    """k_max=2 recovery needs test functions whose widths vary with l."""
    entries = base_entries()
    entries.update({((2,), 0, 0): -0.21, ((1,), 1, 0): 0.13, ((0,), 2, 0): 0.08,
                    ((1,), 0, 1): 0.06, ((0,), 0, 2): -0.035,
                    ((3,), 0, 0): 0.017, ((2,), 0, 1): -0.011})
    nf = NormalForm(1, entries)
    jets = [GaussianBump(l, 0.4 + 0.05 * l).jet(10) for l in range(1, 9)]
    tr = forward_trace_expansion(nf, jets, 4)
    rot = nonresonance_margin((SQRT2M1,), 8)
    rec, report = invert_trace_expansion(tr, rot, 4, k_max=2)
    for (r, s, k), c in entries.items():
        if sum(r) + s + k <= 1:
            continue
        assert abs(rec.coeff(r, s, k) - c) < 1e-9 * (1.0 + abs(c))
    assert report["unknown_counts"] == {1: 6, 2: 9, 3: 12}


def test_forward_invert_round_trip_two_modes():
    """Two modes: every (r, s) with |r| + s = 2 is recovered at M = 2."""
    rng = np.random.default_rng(2718)
    entries = {((0, 0), 0, 0): 0.7, ((1, 0), 0, 0): SQRT2M1, ((0, 1), 0, 0): SQRT3M1,
               ((0, 0), 1, 0): 1.0}
    unknowns = [((2, 0), 0), ((1, 1), 0), ((0, 2), 0), ((1, 0), 1), ((0, 1), 1), ((0, 0), 2)]
    for r, s in unknowns:
        entries[(r, s, 0)] = rng.uniform(-0.3, 0.3)
    nf = NormalForm(2, entries)
    jets = [GaussianBump(l, 0.7).jet(12) for l in range(1, 7)]
    tr = forward_trace_expansion(nf, jets, 2)
    rot = nonresonance_margin((SQRT2M1, SQRT3M1), 8)
    rec, report = invert_trace_expansion(tr, rot, 2, k_max=0)
    assert report["unknown_counts"] == {1: 6}
    assert report["condition_numbers"][1] < 1e5
    for r, s in unknowns:
        c = entries[(r, s, 0)]
        assert abs(rec.coeff(r, s, 0) - c) < 1e-11 * abs(c)


def test_inversion_rejects_rigid_test_family():
    """One Gaussian width for every l makes the hbar columns dependent."""
    entries = base_entries()
    entries.update({((2,), 0, 0): -0.21, ((0,), 0, 2): -0.035})
    nf = NormalForm(1, entries)
    jets = [GaussianBump(l, 0.7).jet(10) for l in range(1, 9)]
    tr = forward_trace_expansion(nf, jets, 4)
    rot = nonresonance_margin((SQRT2M1,), 8)
    with pytest.raises(IllConditionedError):
        invert_trace_expansion(tr, rot, 4, k_max=2)


def test_inversion_detects_corrupted_data():
    entries = base_entries()
    entries.update({((2,), 0, 0): -0.21, ((1,), 1, 0): 0.13})
    nf = NormalForm(1, entries)
    jets = [GaussianBump(l, 0.7).jet(10) for l in range(1, 7)]
    tr = forward_trace_expansion(nf, jets, 3)
    rot = nonresonance_margin((SQRT2M1,), 8)
    bad0 = dict(tr.entries)
    bad0[(1, 0)] = bad0[(1, 0)] + 1e-3
    with pytest.raises(InconsistentDataError, match="free part"):
        invert_trace_expansion(TraceExpansion(bad0, tr.jets),
                               rot, 3, k_max=0)
    bad2 = dict(tr.entries)
    bad2[(1, 2)] = bad2[(1, 2)] + 1e-2
    with pytest.raises(InconsistentDataError, match="residual"):
        invert_trace_expansion(TraceExpansion(bad2, tr.jets),
                               rot, 3, k_max=0)


def test_trace_expansion_csv_round_trip():
    entries = base_entries()
    entries.update({((2,), 0, 0): -0.21, ((1,), 1, 0): 0.13})
    nf = NormalForm(1, entries)
    jets = [GaussianBump(l, 0.7).jet(10) for l in range(1, 4)]
    tr = forward_trace_expansion(nf, jets, 3)
    back = TraceExpansion.from_csv(tr.to_csv(), tr.jets)
    assert set(back.entries) == set(tr.entries)
    for key, val in tr.entries.items():
        assert abs(back.entries[key] - val) < 1e-15 * (1.0 + abs(val))


def test_period_index_is_stored_as_a_plain_int():
    """A numpy int l is stored as a plain int and its table survives the CSV
    round trip; a float l is rejected even when integral, so a table is
    never keyed on one (bad values: tests/test_inputs.py)."""
    bump = GaussianBump(np.int64(2), 0.7)
    assert type(bump.l) is int and type(bump.jet(4).l) is int
    assert type(TestFunctionJet(np.int64(2), (1.0,)).l) is int
    nf = NormalForm(1, base_entries())
    tr = forward_trace_expansion(nf, [bump.jet(8)], 2)
    assert tr.to_csv().splitlines()[1].startswith("2,0,")
    back = TraceExpansion.from_csv(tr.to_csv(), tr.jets)
    assert back.entries == tr.entries


def test_periodic_denominator_resonance_guard():
    """theta = 1/3: the kernel is finite at l = 1, 2 and degenerates at l = 3."""
    nf = NormalForm(1, {((0,), 0, 0): 0.7, ((1,), 0, 0): 1.0 / 3.0,
                        ((0,), 1, 0): 1.0, ((2,), 0, 0): -0.2})
    tr = forward_trace_expansion(nf, [GaussianBump(l, 0.7).jet(8) for l in (1, 2)], 3)
    assert all(math.isfinite(abs(v)) for v in tr.entries.values())
    with pytest.raises(ResonanceError, match="periodic denominator"):
        forward_trace_expansion(nf, [GaussianBump(l, 0.7).jet(8) for l in (1, 2, 3)], 3)


def test_jet_depth_guard():
    rot = nonresonance_margin((SQRT2M1,), 8)
    shallow = GaussianBump(1, 0.7).jet(2)
    with pytest.raises(JetDepthError):
        psi_kernel(0, (0,), 3, shallow, rot)
    with pytest.raises(JetDepthError):
        g_function((0,), 3, shallow, rot)


def test_quadrature_window_reads_points_per_width_as_an_integer():
    """Bad values: tests/test_inputs.py."""
    bump = GaussianBump(1, 0.7)
    assert bump.quadrature_window(1)[2] == 17
    assert bump.quadrature_window(np.int64(64)) == bump.quadrature_window() == (
        2 * math.pi - 5.6, 2 * math.pi + 5.6, 1025
    )
