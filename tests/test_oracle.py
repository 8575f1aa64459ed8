"""Truncated-basis matrix oracle: assembly, safe spectra, numeric traces."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from orbitbnf import oracle
from orbitbnf.bridge import weyl_symbol_of_word, wick_from_weyl
from orbitbnf.errors import CoverageError, UnsafeWindowError
from orbitbnf.normalform import NormalForm
from orbitbnf.oracle import (
    assemble_matrix,
    BasisWindow,
    MATRIX_BUDGET,
    numeric_trace,
    quasi_eigenvalues,
    smooth_plateau,
)
from orbitbnf.quantum import exp_conjugate, h0_word
from orbitbnf.series import nonresonance_margin
from orbitbnf.traces import GaussianBump
from orbitbnf.words import adjoint, normal_order_product, WordPoly
from oracle_helpers import coherent_state_checks, model_trace, render_check_report, wick_symbol_numeric

SQRT2M1 = math.sqrt(2.0) - 1.0


def cubic_word(cap, eps):
    s = WordPoly.annihilation(1, 0) + WordPoly.creation(1, 0)
    return normal_order_product(normal_order_product(s, s, cap), s, cap) * eps


def test_basis_window_dimension_and_state_order():
    w = BasisWindow(2, 1, 0.1)
    assert w.dimension(1) == 9
    assert w.dimension(2) == 18
    states = w.states(1)
    assert states[:4] == [
        ((0,), -1), ((1,), -1), ((2,), -1), ((0,), 0),
    ]
    assert w.doubled(True) == BasisWindow(4, 2, 0.1)
    assert w.doubled(False) == BasisWindow(4, 1, 0.1)


def test_basis_window_stores_integer_cuts_and_rejects_bad_input():
    w = BasisWindow(np.int64(3), np.int64(1), 0.1)
    assert type(w.hermite_cut) is int and type(w.fourier_cut) is int
    assert w.dimension(1) == 12 and len(w.states(1)) == 12
    for cuts in ((3.0, 0), (3, 0.5), (-1, 0)):
        with pytest.raises(ValueError, match="_cut must be"):
            BasisWindow(*cuts, 0.1)
    for hbar in (math.inf, -math.inf, math.nan, 0.0, -0.1):
        with pytest.raises(ValueError, match="hbar"):
            BasisWindow(3, 0, hbar)


def test_assemble_h0_is_the_exact_ladder():
    rot = nonresonance_margin((SQRT2M1,), 8)
    hbar = 0.1
    w = BasisWindow(5, 2, hbar)
    mat = assemble_matrix(h0_word(rot, 0.7, 8), w).toarray()
    assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0
    for i, (mu, nu) in enumerate(w.states(1)):
        pred = 0.7 + SQRT2M1 * hbar * (mu[0] + 0.5) + nu * hbar
        assert abs(mat[i, i] - pred) < 1e-14


def test_assemble_ladder_amplitudes():
    hbar = 0.1
    am = assemble_matrix(WordPoly.annihilation(1, 0), BasisWindow(5, 0, hbar)).toarray()
    for m in range(5):
        assert abs(am[m, m + 1] - math.sqrt((m + 1) * hbar)) < 1e-15
    assert np.count_nonzero(am) == 5


def test_assemble_table_is_the_diagonal_of_its_values():
    """A NormalForm assembles as h((mu + 1/2) hbar, nu hbar, hbar) on the diagonal."""
    tables = (
        NormalForm(1, {((0,), 0, 0): 0.7, ((1,), 0, 0): SQRT2M1, ((0,), 1, 0): 1.0,
                       ((2,), 1, 0): -0.3, ((3,), 0, 1): 0.05, ((0,), 0, 2): 0.2}),
        NormalForm(2, {((1, 0), 0, 0): SQRT2M1, ((0, 1), 0, 0): 0.73, ((0, 0), 1, 0): 1.0,
                       ((1, 2), 0, 0): -0.4, ((2, 0), 2, 1): 0.15}),
    )
    for h in tables:
        w = BasisWindow(4, 2, 0.3)
        mat = assemble_matrix(h, w).toarray()
        diag = [h.evaluate(tuple((m + 0.5) * w.hbar for m in mu), nu * w.hbar, w.hbar)
                for mu, nu in w.states(h.dim)]
        scale = np.max(np.abs(diag))
        assert np.max(np.abs(mat - np.diag(diag))) <= 1e-14 * scale


def fourier_coupled_word(cap):
    """h0 + 0.01 (a + a+)^2 + 0.05 (a + a+)(e^{it} + e^{-it}): symmetric, m = +-1."""
    rot = nonresonance_margin((SQRT2M1,), 8)
    s = WordPoly.annihilation(1, 0) + WordPoly.creation(1, 0)
    hop = WordPoly.zero(1)
    for m in (1, -1):
        hop = hop + WordPoly.word(1, nu=(1,), m=m) + WordPoly.word(1, mu=(1,), m=m)
    return h0_word(rot, 0.7, cap) + normal_order_product(s, s, cap) * 0.01 + hop * 0.05


def two_mode_quartic(cap):
    rot = nonresonance_margin((SQRT2M1, math.sqrt(3.0) - 1.0), cap)
    s = (WordPoly.annihilation(2, 0) + WordPoly.creation(2, 0)
         + WordPoly.annihilation(2, 1) + WordPoly.creation(2, 1))
    s2 = normal_order_product(s, s, cap)
    return h0_word(rot, 1.0, cap) + normal_order_product(s2, s2, cap) * 0.003


@pytest.mark.parametrize("make, w, couple", [
    (lambda: cubic_word(10, 0.01) + h0_word(nonresonance_margin((SQRT2M1,), 8), 0.7, 10),
     BasisWindow(12, 2, 0.05), False),
    (lambda: two_mode_quartic(8), BasisWindow(5, 0, 0.1), False),
    (lambda: fourier_coupled_word(8), BasisWindow(6, 3, 0.1), True),
], ids=["one-mode-cubic", "two-mode-quartic", "fourier-coupled"])
def test_working_block_of_the_doubled_assembly_is_the_working_matrix(make, w, couple):
    a = make()
    assert oracle._couples_fourier(a) is couple
    wide = w.doubled(couple)
    inside = np.array([sum(mu) <= w.hermite_cut and abs(nu) <= w.fourier_cut
                       for mu, nu in wide.states(a.dim)])
    working = assemble_matrix(a, wide).toarray()[np.ix_(inside, inside)]
    assert np.array_equal(working, assemble_matrix(a, w).toarray())


def test_assemble_is_real_exactly_when_every_coefficient_is():
    w = BasisWindow(6, 1, 0.1)
    real_cases = (cubic_word(8, 0.01), fourier_coupled_word(8),
                  WordPoly.word(1, mu=(2,), nu=(1,), coeff=1.0 + 0j),
                  NormalForm(1, {((1,), 0, 0): SQRT2M1, ((0,), 1, 0): 1.0}))
    for a in real_cases:
        assert assemble_matrix(a, w).vals.dtype == np.float64
    s = (WordPoly.creation(1, 0) - WordPoly.annihilation(1, 0)) * 1j
    for a in (s, cubic_word(8, 0.01) + WordPoly.word(1, mu=(1,), nu=(1,), coeff=1e-300j)):
        assert assemble_matrix(a, w).vals.dtype == np.complex128


def test_assemble_rejects_oversized_windows():
    w = BasisWindow(80, 30, 0.1)
    assert w.dimension(1) > MATRIX_BUDGET
    with pytest.raises(ValueError):
        assemble_matrix(WordPoly.annihilation(1, 0), w)


def test_spectrum_invariant_under_conjugation():
    """A truncated unitary conjugation must not move safe eigenvalues."""
    rot = nonresonance_margin((SQRT2M1,), 8)
    hbar = 0.05
    H = h0_word(rot, 0.7, 10) + cubic_word(10, 0.01)
    F = WordPoly.word(1, mu=(3,), nu=(0,), coeff=0.002)
    F = F + adjoint(F)
    HC = exp_conjugate(H, F, 10)
    w = BasisWindow(64, 0, hbar)
    win = (0.7 + SQRT2M1 * hbar * 2.2, 0.7 + SQRT2M1 * hbar * 8.8)
    e1 = quasi_eigenvalues(H, w, win)
    e2 = quasi_eigenvalues(HC, w, win)
    assert len(e1) == len(e2) == 7
    assert np.max(np.abs(np.array(e1) - np.array(e2))) < 1e-10


@pytest.mark.parametrize("c", [1e-9, 1e-6])
def test_quasi_eigenvalues_rejects_a_word_that_is_not_symmetric(c):
    """(a+)^21 has no entry at cut 20 and enters only the doubled matrix, so
    a matrix test at the working cut misses it; the word test does not."""
    rot = nonresonance_margin((SQRT2M1,), 8)
    hbar = 0.1
    H = h0_word(rot, 0.7, 40) + WordPoly.word(1, mu=(21,), nu=(0,), coeff=c)
    w = BasisWindow(20, 0, hbar)
    mat, ref = (assemble_matrix(b, w).toarray() for b in (H, h0_word(rot, 0.7, 40)))
    assert not np.any(mat - ref)
    with pytest.raises(ValueError, match="not symmetric"):
        quasi_eigenvalues(H, w, (0.69, 0.7 + 5.9 * SQRT2M1 * hbar))


def test_real_and_complex_solves_agree(monkeypatch):
    """h0 + eps (a + a+)^3 and h0 + eps (i(a+ - a))^3 are unitarily equivalent
    by e^{i pi N / 2}; the first is solved in real, the second in complex
    arithmetic."""
    rot = nonresonance_margin((SQRT2M1,), 8)
    hbar = 0.05
    s = (WordPoly.creation(1, 0) - WordPoly.annihilation(1, 0)) * 1j
    H_r = h0_word(rot, 0.7, 10) + cubic_word(10, 0.01)
    H_c = h0_word(rot, 0.7, 10) + normal_order_product(
        normal_order_product(s, s, 10), s, 10) * 0.01
    solved = []

    def spy(solve):
        def call(mat):
            solved.append(mat.dtype)
            return solve(mat)
        return call

    monkeypatch.setattr(oracle.np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(oracle.np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    w = BasisWindow(64, 0, hbar)
    win = (0.7 + SQRT2M1 * hbar * 0.2, 0.7 + SQRT2M1 * hbar * 8.8)
    e_r = quasi_eigenvalues(H_r, w, win)
    assert solved == [np.float64, np.float64]
    e_c = quasi_eigenvalues(H_c, w, win)
    assert solved[2:] == [np.complex128, np.complex128]
    assert len(e_r) == len(e_c) == 9
    assert np.max(np.abs(np.array(e_r) - np.array(e_c))) < 1e-12


def test_quasi_eigenvalues_rejects_shallow_window():
    rot = nonresonance_margin((SQRT2M1,), 8)
    hbar = 0.1
    w = BasisWindow(16, 0, hbar)
    win = (0.7 + SQRT2M1 * hbar * 12.0, 0.7 + SQRT2M1 * hbar * 13.0)
    with pytest.raises(UnsafeWindowError):
        quasi_eigenvalues(h0_word(rot, 0.7, 8), w, win)


def test_numeric_trace_single_state_is_phi_at_zero():
    bump = GaussianBump(1, 0.7)
    got = numeric_trace([0.7], 0.7, 0.1, bump, weights=[2.0])
    expected = 2.0 * bump.phi(0.0)
    assert abs(got - expected) < 1e-12


def test_numeric_trace_rejects_bad_hbar_and_non_finite_levels_or_weights():
    bump = GaussianBump(1, 0.7)
    for hbar in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="hbar"):
            numeric_trace([0.7], 0.7, hbar, bump)
        with pytest.raises(ValueError, match="hbar"):
            numeric_trace([], 0.7, hbar, bump)
    for E in (math.nan, math.inf):
        with pytest.raises(ValueError, match="E must be finite"):
            numeric_trace([0.7], E, 0.1, bump)
    for levels, weights in (([0.7, math.nan], None), ([0.7, math.inf], None),
                            ([0.7, 0.8], [1.0, math.nan]), ([0.7, 0.8], [math.inf, 1.0])):
        for floor in (None, 1e-9):
            with pytest.raises(ValueError, match="finite"):
                numeric_trace(levels, 0.7, 0.1, bump, weights=weights, floor=floor)


def test_numeric_trace_rejects_a_floor_that_is_not_none_or_finite_and_non_negative():
    """A NaN floor would pass every sum: ``worst > nan`` is False."""
    bump = GaussianBump(1, 0.7)
    for floor in (math.nan, math.inf, -1e-9):
        with pytest.raises(ValueError, match="floor"):
            numeric_trace([0.7], 0.7, 0.1, bump, floor=floor)
    with pytest.raises(CoverageError):
        numeric_trace([0.7], 0.7, 0.1, bump, floor=0.0)


def test_numeric_trace_reads_points_per_width_as_an_integer():
    """Bad values: tests/test_inputs.py."""
    bump = GaussianBump(1, 0.7)
    default = numeric_trace([0.7, 0.75], 0.7, 0.1, bump)
    assert numeric_trace([0.7, 0.75], 0.7, 0.1, bump, points_per_width=np.int64(64)) == default
    assert math.isfinite(abs(numeric_trace([0.7], 0.7, 0.1, bump, points_per_width=1)))


@dataclass(frozen=True)
class ShiftedBump:
    """phi_hat_a(t) = e^{-i a t} phi_hat(t), so phi_a(x) = phi(x - a)."""

    bump: GaussianBump
    a: float

    def phi_hat(self, t):
        return cmath.exp(-1j * self.a * t) * self.bump.phi_hat(t)

    def quadrature_window(self, points_per_width=64):
        return self.bump.quadrature_window(points_per_width)


def test_numeric_trace_with_a_complex_phi_hat_shifts_the_energy():
    bump = GaussianBump(1, 0.7)
    hbar, a = 0.1, 0.3
    rng = np.random.default_rng(3)
    spectrum = 0.7 + hbar * rng.uniform(-4.0, 4.0, 40)
    weights = rng.uniform(0.5, 1.5, 40)
    shifted = numeric_trace(spectrum, 0.7, hbar, ShiftedBump(bump, a), weights)
    moved = numeric_trace(spectrum, 0.7 + a * hbar, hbar, bump, weights)
    assert abs(moved) > 0.1
    assert abs(shifted - moved) < 1e-12


def straight_loop_phi(bump, xs, points_per_width):
    """The trapezoid rule with one cos/sin pair per (x, node), and sum |w|."""
    t0, t1, n = bump.quadrature_window(points_per_width)
    ts = np.linspace(t0, t1, n)
    wts = np.array([bump.phi_hat(t) for t in ts], dtype=complex)
    wts *= (ts[1] - ts[0]) / (2.0 * math.pi)
    wts[[0, -1]] *= 0.5
    arg = np.outer(xs, ts)
    return np.cos(arg) @ wts + 1j * (np.sin(arg) @ wts), float(np.sum(np.abs(wts)))


@pytest.mark.parametrize("points_per_width", [64, 13])
@pytest.mark.parametrize("bump", [GaussianBump(1, 0.7), ShiftedBump(GaussianBump(1, 0.7), 0.3)],
                         ids=["real", "complex"])
def test_split_angle_quadrature_matches_the_straight_loop(bump, points_per_width):
    """Both rules round the phase x t to ulp(x t), so the comparison covers
    the bump's support |x| <= 20; 2500 points cross the 2048-point chunk, and
    neither node count (1025, 209) is a multiple of the split."""
    *_, n = bump.quadrature_window(points_per_width)
    assert n % oracle._SPLIT != 0
    xs = np.linspace(-20.0, 20.0, 2500)
    ref, weight_sum = straight_loop_phi(bump, xs, points_per_width)
    got = oracle._phi_quadrature(bump, xs, points_per_width)
    assert np.max(np.abs(got - ref)) <= 1e-14 * weight_sum


def test_split_angle_quadrature_matches_the_closed_form_over_the_traced_range():
    """The benchmark's windows evaluate phi at |x| up to about 240, where the
    phases reach 250 t: the running product of the fine phases and the
    direct coarse ones stay within 1e-14 of the closed form there too."""
    bump = GaussianBump(1, 0.7)
    xs = np.linspace(-250.0, 250.0, 20001)
    closed = np.array([bump.phi(x) for x in xs])
    assert np.max(np.abs(oracle._phi_quadrature(bump, xs, 64) - closed)) <= 1e-14


def test_numeric_trace_coverage_guard():
    bump = GaussianBump(1, 0.7)
    with pytest.raises(CoverageError):
        numeric_trace([0.7], 0.7, 0.1, bump, floor=1e-12)


def test_model_trace_matches_hand_double_sum():
    """Independent reimplementation with the closed-form phi, not quadrature."""
    rot_theta = SQRT2M1
    nf = NormalForm(1, {((0,), 0, 0): 0.7, ((1,), 0, 0): rot_theta,
                        ((0,), 1, 0): 1.0})
    bump = GaussianBump(1, 0.7)
    hbar = 0.1
    p1, p2 = 0.3, 0.8
    got = model_trace(nf, 0.7, hbar, bump, (p1, p2), floor=1e-12)
    hand = 0.0 + 0.0j
    for mu in range(int(math.ceil(p2 / hbar)) + 4):
        p = (mu + 0.5) * hbar
        rho = smooth_plateau(p, p1, p2)
        if rho == 0.0:
            continue
        for nu in range(-80, 81):
            lam = 0.7 + rot_theta * p + nu * hbar
            hand += rho * bump.phi((lam - 0.7) / hbar)
    assert abs(got - hand) < 1e-12


def test_coherent_state_checks_pass_at_contract_point():
    w = BasisWindow(120, 0, 0.1)
    rep = coherent_state_checks(w, 0.7, 0.3, 0.1)
    assert rep["passed"] is True
    for key in ("rotation_residual", "overlap_residual",
                "self_overlap_residual", "wick_residual", "tail_mass"):
        assert rep[key] < 1e-10
    text = render_check_report(rep)
    assert "PASS" in text
    assert "max residual" in text


def test_wick_symbol_numeric_matches_series_route():
    """Matrix-side Wick values agree with the symbol dictionary at z = x + i xi."""
    hbar = 0.05
    x, xi = 0.3, 0.1
    s = WordPoly.annihilation(1, 0) + WordPoly.creation(1, 0)
    A = (normal_order_product(s, s, 8) * 0.5
         + WordPoly.word(1, mu=(2,), nu=(1,), coeff=0.25)
         + WordPoly.word(1, k=1, coeff=-0.3))
    num = wick_symbol_numeric(A, BasisWindow(140, 0, hbar), x, xi)
    series = wick_from_weyl(weyl_symbol_of_word(A, 6), 6)
    val = series.evaluate((x + 1j * xi,), 0.0, 0.0, hbar)
    assert abs(num - val) < 1e-10


def test_smooth_plateau_shape():
    assert smooth_plateau(0.1, 0.3, 0.8) == 1.0
    assert smooth_plateau(0.3, 0.3, 0.8) == 1.0
    assert smooth_plateau(0.8, 0.3, 0.8) == 0.0
    assert smooth_plateau(1.2, 0.3, 0.8) == 0.0
    samples = [smooth_plateau(0.3 + 0.05 * i, 0.3, 0.8) for i in range(11)]
    assert all(0.0 <= v <= 1.0 for v in samples)
    assert all(a >= b - 1e-15 for a, b in zip(samples, samples[1:]))
    assert 0.0 < smooth_plateau(0.55, 0.3, 0.8) < 1.0
