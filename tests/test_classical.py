"""Classical and hbar-graded normal-form sweeps."""

import math
import random

import pytest

from orbitbnf.acceptance import _benchmark_hamiltonian
from orbitbnf.bridge import weyl_symbol_of_word
from orbitbnf.classical import (
    birkhoff_classical,
    birkhoff_semiclassical,
    h0_series,
    homological_residual,
    lie_conjugate,
    solve_homological_classical,
)
from orbitbnf.errors import ResonanceError
from orbitbnf.graded import check_quadratic_part, is_resonant_key
from orbitbnf.series import (
    FTSeries,
    nonresonance_margin,
    poisson_bracket,
)

SQRT2M1 = math.sqrt(2.0) - 1.0
SQRT3M1 = math.sqrt(3.0) - 1.0


def rot1(order=8):
    return nonresonance_margin((SQRT2M1,), order)


def cubic_symbol(dim_cap, eps):
    """Weyl symbol of eps (a + a+)^3: eps (z + zbar)^3 / 2^(3/2)."""
    cube = {((3 - i,), (i,), 0, 0, 0): math.comb(3, i) for i in range(4)}
    return FTSeries(1, cube, dim_cap).scaled(eps / 2**1.5)


def test_h0_series_structure():
    rot = rot1()
    H0 = h0_series(rot, 2.0)
    assert H0.coeff(((0,), (0,), 0, 0, 0)) == 2.0
    assert abs(H0.coeff(((1,), (1,), 0, 0, 0)) - SQRT2M1 / 2) < 1e-15
    assert H0.coeff(((0,), (0,), 0, 1, 0)) == 1.0


def test_validate_quadratic_part_accepts_h0_and_rejects_mismatch():
    rot = rot1()
    assert check_quadratic_part(h0_series(rot, 1.0), h0_series(rot)) == 1.0
    wrong = h0_series(rot, 1.0) + FTSeries.monomial(1, (1,), (1,), coeff=0.1)
    with pytest.raises(ValueError):
        check_quadratic_part(wrong, h0_series(rot), tol=1e-12)


def test_homological_solve_contract_on_random_data():
    rng = random.Random(20)
    rot = nonresonance_margin((SQRT2M1, SQRT3M1), 8)
    G = FTSeries.zero(2)
    for _ in range(8):
        mu = tuple(rng.randint(0, 2) for _ in range(2))
        nu = tuple(rng.randint(0, 2) for _ in range(2))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        G = G + FTSeries.monomial(2, mu, nu, rng.randint(-2, 2), 0, 0, c)
    F, G1 = solve_homological_classical(G, rot)
    assert homological_residual(F, G, G1, rot) < 1e-13
    res = poisson_bracket(h0_series(rot), F) - G - G1.as_series()
    assert res.max_abs_coeff() < 1e-13


def test_homological_solve_routes_resonant_keys_to_g1():
    rot = rot1()
    resonant = FTSeries.monomial(1, (2,), (2,), coeff=1.0)
    F, G1 = solve_homological_classical(resonant, rot)
    assert F.max_abs_coeff() == 0.0
    assert abs(G1.coeff((2,), 0, 0) + 4.0) < 1e-14  # p^2 = (z zbar/2)^2 scale


def test_solver_raises_on_small_divisor():
    rot = nonresonance_margin((SQRT2M1,), 8)
    G = FTSeries.monomial(1, (2,), (0,), m=1, coeff=1.0)
    # 2 theta - 1 = -0.1715... is fine at the default threshold, but becomes
    # a reported small divisor when the threshold is pushed above it
    with pytest.raises(ResonanceError):
        solve_homological_classical(G, rot, margin_threshold=0.2)


def test_birkhoff_classical_golden_p2_coefficient():
    """Cubic perturbation: the weight-4 action coefficient is -30 eps^2/theta.

    Checked for two coupling values so the eps^2 scaling is visible, not
    fitted."""
    for eps in (1e-3, 5e-3):
        rot = rot1()
        H = h0_series(rot, 1.0, 8) + cubic_symbol(8, eps)
        nf, log, remainder = birkhoff_classical(H, rot, 4, 8)
        got = nf.coeff((2,), 0, 0)
        expected = -30.0 * eps**2 / SQRT2M1
        assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))
        assert nf.energy() == 1.0
        assert abs(nf.theta()[0] - SQRT2M1) < 1e-15


def test_birkhoff_classical_kills_nonresonant_content_through_order():
    rot = rot1()
    H = h0_series(rot, 0.0, 8) + cubic_symbol(8, 0.01)
    nf, gens, remainder = birkhoff_classical(H, rot, 6, 8)
    replayed = H
    for F in gens:
        replayed = lie_conjugate(replayed, F, None, 8)
    # everything of weight <= 6 in the replayed series is resonant
    for key in replayed.truncated(6).keys():
        if abs(replayed.coeff(key)) > 1e-12:
            assert is_resonant_key(key)


def test_birkhoff_order_stability():
    """Raising the sweep order never changes already-computed coefficients."""
    rot = rot1()
    H = h0_series(rot, 1.0, 10) + cubic_symbol(10, 0.01)
    nf4, _, _ = birkhoff_classical(H, rot, 4, 10)
    nf6, _, _ = birkhoff_classical(H, rot, 6, 10)
    for rec in nf4.to_records():
        r, s, k = tuple(rec["r"]), rec["s"], rec["k"]
        assert abs(nf6.coeff(r, s, k) - rec["c"]) < 1e-13


def test_tau_powers_pass_through_as_resonant_content():
    rot = rot1()
    H = h0_series(rot, 0.0, 8) + FTSeries.monomial(1, (0,), (0,), j=2, coeff=0.3)
    nf, _, _ = birkhoff_classical(H, rot, 4, 8)
    assert abs(nf.coeff((0,), 2, 0) - 0.3) < 1e-14


@pytest.mark.parametrize("route", ["classical", "semiclassical"])
def test_generators_replay_the_sweep(route):
    """Conjugating H by the returned generators gives nf + remainder, and
    each generator lies on the grade it normalized."""
    H, rot = _benchmark_hamiltonian(8, 0.1, 1.0)
    Hs = weyl_symbol_of_word(H, 2, 8)
    if route == "classical":
        hbar_order = None
        nf, gens, remainder = birkhoff_classical(Hs, rot, 6, 8)
    else:
        hbar_order = 2
        nf, gens, remainder = birkhoff_semiclassical(Hs, rot, 6, hbar_order, 8)
        Hs = Hs.hbar_truncated(hbar_order)
    replayed = Hs
    for F in gens:
        replayed = lie_conjugate(replayed, F, hbar_order, 8)
    assert (replayed - nf.as_series() - remainder).max_abs_coeff() <= 1e-15
    assert [F.min_grade() for F in gens] == [3, 4, 5, 6]


def test_semiclassical_sweep_golden_hbar2_constant():
    """The hbar^2 energy constant of the graded sweep is +4 eps^2/theta."""
    for eps in (1e-3, 5e-3):
        rot = rot1()
        H = h0_series(rot, 1.0, 8) + cubic_symbol(8, eps)
        nf, _, _ = birkhoff_semiclassical(H, rot, 4, 2, 8)
        expected = 4.0 * eps**2 / SQRT2M1
        assert abs(nf.coeff((0,), 0, 2) - expected) < 1e-12
        # the hbar^0 slice agrees with the classical sweep
        nfc, _, _ = birkhoff_classical(H, rot, 4, 8)
        for rec in nfc.to_records():
            r, s, k = tuple(rec["r"]), rec["s"], rec["k"]
            assert abs(nf.coeff(r, s, k) - rec["c"]) < 1e-12


def test_semiclassical_output_has_no_odd_hbar_terms():
    rot = rot1()
    H = h0_series(rot, 1.0, 8) + cubic_symbol(8, 0.01)
    nf, _, _ = birkhoff_semiclassical(H, rot, 6, 2, 8)
    for rec in nf.to_records():
        if abs(rec["c"]) > 1e-13:
            assert rec["k"] % 2 == 0
