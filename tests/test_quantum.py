"""Operator-side normal form: homological solver, conjugation, graded sweep."""

import math
import random

import pytest

from orbitbnf.quantum import (
    birkhoff_quantum,
    exp_conjugate,
    h0_word,
    quantum_homological_residual,
    solve_homological_quantum,
)
from orbitbnf.series import nonresonance_margin, ResonanceError
from orbitbnf.words import (
    adjoint,
    commutator_over_ihbar,
    key_grade,
    normal_form_to_word,
    normal_order_product,
    WordPoly,
)

SQRT2M1 = math.sqrt(2.0) - 1.0


def rot1():
    return nonresonance_margin((SQRT2M1,), 8)


def cubic_word(cap, eps):
    """eps (a + a+)^3 as a normal-ordered word in one transverse mode."""
    s = WordPoly.annihilation(1, 0) + WordPoly.creation(1, 0)
    return normal_order_product(normal_order_product(s, s, cap), s, cap) * eps


def random_symmetric_word(rng, dim, terms=3):
    out = WordPoly.zero(dim)
    for _ in range(terms):
        mu = tuple(rng.randint(0, 2) for _ in range(dim))
        nu = tuple(rng.randint(0, 2) for _ in range(dim))
        out = out + WordPoly.word(
            dim,
            mu=mu,
            nu=nu,
            m=rng.randint(-2, 2),
            j=rng.randint(0, 1),
            k=rng.randint(0, 1),
            coeff=rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)),
        )
    return out + adjoint(out)


def test_h0_word_structure():
    """E + theta a+a + D_t + (theta/2) hbar, and nothing else."""
    rot = rot1()
    h0 = h0_word(rot, 1.0, 8)
    got = {
        (tuple(r["mu"]), tuple(r["nu"]), r["m"], r["j"], r["k"]): complex(r["re"], r["im"])
        for r in h0.to_records()
    }
    expected = {
        ((0,), (0,), 0, 0, 0): 1.0,
        ((1,), (1,), 0, 0, 0): SQRT2M1,
        ((0,), (0,), 0, 1, 0): 1.0,
        ((0,), (0,), 0, 0, 1): SQRT2M1 / 2.0,
    }
    assert set(got) == set(expected)
    for key, val in expected.items():
        assert abs(got[key] - val) < 1e-15


def test_quantum_homological_contract_random():
    """[h0, F]/(i hbar) = G + G1 for random self-adjoint right-hand sides.

    The residual is checked both through the reporting helper and literally,
    and the generator inherits self-adjointness from G."""
    rng = random.Random(4242)
    rot2 = nonresonance_margin((SQRT2M1, math.sqrt(3.0) - 1.0), 8)
    for trial in range(30):
        dim = 1 if trial % 2 == 0 else 2
        rot = rot1() if dim == 1 else rot2
        G = random_symmetric_word(rng, dim)
        F, G1 = solve_homological_quantum(G, rot)
        assert quantum_homological_residual(F, G, G1, rot) < 1e-12
        h0w = h0_word(rot, 1.0, 10)
        literal = commutator_over_ihbar(h0w, F) - G - normal_form_to_word(G1)
        assert literal.max_abs_coeff() < 1e-12
        assert (F - adjoint(F)).max_abs_coeff() < 1e-13


def test_quantum_solver_routes_diagonal_to_g1():
    """(a+)^2 a^2 is in the kernel of ad h0 and lands in G1 with a sign flip.

    (a+)^2 a^2 = (p - hbar/2)(p - 3 hbar/2), so minus that shows up."""
    rot = rot1()
    diag = WordPoly.word(1, mu=(2,), nu=(2,), coeff=1.0)
    F, G1 = solve_homological_quantum(diag, rot)
    assert F.max_abs_coeff() == 0.0
    assert abs(G1.coeff((2,), 0, 0) + 1.0) < 1e-14
    assert abs(G1.coeff((1,), 0, 1) - 2.0) < 1e-14
    assert abs(G1.coeff((0,), 0, 2) + 0.75) < 1e-14


def test_quantum_solver_routes_fourier_diagonal_to_g1():
    rot = rot1()
    d = WordPoly.word(1, mu=(1,), nu=(1,), j=1, coeff=1.0)
    F, G1 = solve_homological_quantum(d, rot)
    assert F.max_abs_coeff() == 0.0
    assert abs(G1.coeff((1,), 1, 0) + 1.0) < 1e-14
    assert abs(G1.coeff((0,), 1, 1) - 0.5) < 1e-14


def test_quantum_solver_raises_on_small_divisor():
    # on the operator side the divisor for (mu - nu, m) is theta.(mu - nu) + m,
    # so the near-resonant combination 2 theta - 1 sits at m = -1 here
    rot = rot1()
    G = WordPoly.word(1, mu=(2,), nu=(0,), m=-1, coeff=1.0)
    with pytest.raises(ResonanceError):
        solve_homological_quantum(G, rot, margin_threshold=0.2)


def test_birkhoff_quantum_golden_coefficients():
    """Cubic perturbation: c_{p^2} = -30 eps^2/theta, c_{hbar^2} = -3.5 eps^2/theta.

    Two coupling values pin the eps^2 scaling."""
    for eps in (1e-3, 5e-3):
        rot = rot1()
        H = h0_word(rot, 1.0, 8) + cubic_word(8, eps)
        h, gens, rem = birkhoff_quantum(H, rot, 6, 8)
        scale = eps**2 / SQRT2M1
        assert abs(h.coeff((2,), 0, 0) + 30.0 * scale) < 1e-11 * scale
        assert abs(h.coeff((0,), 0, 2) + 3.5 * scale) < 1e-11 * scale
        assert h.energy() == 1.0
        assert abs(h.theta()[0] - SQRT2M1) < 1e-15


def test_exp_conjugate_matches_lie_series():
    """exp_conjugate sums the series with ad X = [F, X]/(i hbar)."""
    rot = rot1()
    H = h0_word(rot, 1.0, 8) + cubic_word(8, 1e-3)
    F = WordPoly.word(1, mu=(3,), nu=(0,), m=0, coeff=0.03125)
    F = F + adjoint(F)
    lhs = exp_conjugate(H, F, 8)
    acc = H
    term = H
    fact = 1.0
    for j in range(1, 14):
        term = commutator_over_ihbar(F, term, 8)
        fact *= j
        acc = acc + term * (1.0 / fact)
    assert (lhs - acc).max_abs_coeff() < 1e-15
    # conjugation by a self-adjoint generator preserves self-adjointness
    assert (lhs - adjoint(lhs)).max_abs_coeff() == 0.0


def test_generator_replay_reconstructs_decomposition():
    """Applying the returned generators to H recovers normal form + remainder."""
    rot = rot1()
    H = h0_word(rot, 1.0, 8) + cubic_word(8, 1e-3)
    h, gens, rem = birkhoff_quantum(H, rot, 6, 8)
    assert [g.min_grade() for g in gens] == [3, 4, 5, 6]
    conj = H
    for F in gens:
        conj = exp_conjugate(conj, F, 8)
        assert (conj - adjoint(conj)).max_abs_coeff() < 1e-15
    gap = conj - normal_form_to_word(h) - rem
    assert gap.max_abs_coeff() < 1e-15


def test_quantum_remainder_supported_beyond_order():
    rot = rot1()
    H = h0_word(rot, 1.0, 8) + cubic_word(8, 1e-3)
    h, gens, rem = birkhoff_quantum(H, rot, 6, 8)
    low = max(
        (abs(c) for key, c in rem.items() if key_grade(key) <= 6), default=0.0
    )
    high = max(
        (abs(c) for key, c in rem.items() if key_grade(key) > 6), default=0.0
    )
    assert low < 1e-15
    assert high > 1e-10


def test_birkhoff_quantum_order_stability():
    """Raising the sweep order does not disturb already-normalized entries."""
    rot = rot1()
    H = h0_word(rot, 1.0, 8) + cubic_word(8, 1e-3)
    h4, _, _ = birkhoff_quantum(H, rot, 4, 8)
    h6, _, _ = birkhoff_quantum(H, rot, 6, 8)
    for rec in h4.to_records():
        assert abs(h6.coeff(tuple(rec["r"]), rec["s"], rec["k"]) - rec["c"]) < 1e-12
