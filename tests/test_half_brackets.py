"""The Lie series forms half of every bracket and fills the rest by the mirror.

Every bracket of the package adds the charges ``|mu| - |nu|`` of a term
pair, so with ``half=True`` a kernel forms exactly the charge ``<= 0`` part
of its full output.  On symmetric words (real symbols) the bracket is
symmetric, and ``graded._filled`` rebuilds it from that part as
``X- + mirror(X-) + (X0 + mirror(X0)) / 2``.  Operands here have Gaussian
integer coefficients, ``D_t``/``tau`` powers and Fourier modes.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitbnf.bridge import weyl_symbol_of_word
from orbitbnf.classical import birkhoff_classical, birkhoff_semiclassical, lie_conjugate
from orbitbnf.graded import _filled, max_coeff_difference
from orbitbnf.quantum import birkhoff_quantum, exp_conjugate, h0_word
from orbitbnf.series import (
    FTSeries,
    moyal_bracket,
    moyal_product,
    nonresonance_margin,
    poisson_bracket,
)
from orbitbnf.words import WordPoly, adjoint, commutator_over_ihbar, normal_order_product

LAWS = settings(deadline=None, max_examples=40)
SQRT2M1 = math.sqrt(2.0) - 1.0
SQRT3M1 = math.sqrt(3.0) - 1.0


def charge(key):
    return sum(key[0]) - sum(key[1])


def nonpositive_part(poly):
    return poly.filtered(lambda key: charge(key) <= 0)


def defect(x):
    """Largest coefficient gap between x and its mirror (adjoint or conjugate symbol)."""
    return max_coeff_difference(x, x.mirror())


def gap(a, b):
    """Largest coefficient gap over the scale of ``b``."""
    return (a - b).max_abs_coeff() / max(1.0, b.max_abs_coeff())


@st.composite
def terms(draw, dim):
    out = {}
    for _ in range(draw(st.integers(1, 4))):
        key = (
            tuple(draw(st.integers(0, 2)) for _ in range(dim)),
            tuple(draw(st.integers(0, 2)) for _ in range(dim)),
            draw(st.integers(-2, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 1)),
        )
        out[key] = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return out


@st.composite
def symmetric_word_pairs(draw):
    dim = draw(st.integers(1, 2))
    pair = []
    for _ in range(2):
        w = WordPoly(dim, draw(terms(dim)))
        pair.append(w + adjoint(w))
    return (*pair, draw(st.sampled_from((math.inf, 6, 9))))


@st.composite
def real_symbol_pairs(draw):
    dim = draw(st.integers(1, 2))
    pair = []
    for _ in range(2):
        s = FTSeries(dim, draw(terms(dim)))
        pair.append(s + s.conjugate_symbol())
    return (*pair, draw(st.sampled_from((math.inf, 6, 9))), draw(st.integers(0, 4)))


@LAWS
@given(symmetric_word_pairs())
def test_half_word_product_is_the_nonpositive_charge_part(case):
    a, b, cap = case
    for x, y in ((a, b), (b, a)):
        assert normal_order_product(x, y, cap, half=True) == nonpositive_part(
            normal_order_product(x, y, cap)
        )


@LAWS
@given(symmetric_word_pairs())
def test_filled_half_commutator_is_the_commutator(case):
    a, b, cap = case
    full = commutator_over_ihbar(a, b, cap)
    assert defect(full) == 0.0
    assert gap(_filled(commutator_over_ihbar(a, b, cap, half=True), 1.0), full) <= 1e-14


@LAWS
@given(real_symbol_pairs())
def test_half_series_kernels_are_the_nonpositive_charge_part(case):
    a, b, cap, hbar_order = case
    half = moyal_bracket(a, b, hbar_order, cap, half=True)
    assert gap(half, nonpositive_part(moyal_bracket(a, b, hbar_order, cap))) <= 1e-14
    assert poisson_bracket(a, b, cap, half=True) == nonpositive_part(poisson_bracket(a, b, cap))


@LAWS
@given(real_symbol_pairs())
def test_filled_half_series_brackets_are_the_brackets(case):
    a, b, cap, hbar_order = case
    for full, half in (
        (moyal_bracket(a, b, hbar_order, cap), moyal_bracket(a, b, hbar_order, cap, half=True)),
        (poisson_bracket(a, b, cap), poisson_bracket(a, b, cap, half=True)),
    ):
        assert gap(_filled(half, 1.0), full) <= 1e-14
        assert defect(_filled(half, 1.0)) == 0.0


def test_kernels_called_without_half_keep_the_full_output():
    """Outside the Lie series a product of symmetric operands has both charges."""
    z = FTSeries.monomial(1, (1,), (0,), coeff=1.0)
    x = z + z.conjugate_symbol()
    assert {charge(key) for key in moyal_product(x, x, 2).keys()} == {-2, 0, 2}
    w = WordPoly.creation(1, 0) + WordPoly.annihilation(1, 0)
    assert {charge(key) for key in normal_order_product(w, w).keys()} == {-2, 0, 2}


def _cubic_word(dim, cap, eps, coeffs=(1.0, 0.7)):
    x = WordPoly.zero(dim, cap)
    for i in range(dim):
        x = x + (WordPoly.creation(dim, i, cap) + WordPoly.annihilation(dim, i, cap)) * coeffs[i]
    return normal_order_product(normal_order_product(x, x, cap), x, cap) * eps


def _hamiltonian(dim, order, with_cos=False):
    rot = nonresonance_margin((SQRT2M1, SQRT3M1)[:dim], order)
    cube = _cubic_word(dim, order, 0.05)
    H = h0_word(rot, 1.0, order) + cube
    if with_cos:
        cos_t = WordPoly(dim, {((0,) * dim, (0,) * dim, m, 0, 0): 0.01 for m in (1, -1)}, order)
        H = H + normal_order_product(cos_t, cube, order)
    return H, rot


@pytest.mark.parametrize("dim", [1, 2])
def test_quantum_remainder_is_exactly_symmetric_on_t_independent_input(dim):
    H, rot = _hamiltonian(dim, 8)
    # an asymmetry far below the 1e-12 guard is averaged away at the boundary
    H = H + WordPoly.word(dim, mu=(3,) + (0,) * (dim - 1), coeff=1e-15, max_grade=8)
    assert 0.0 < defect(H) < 1e-12
    _h, generators, remainder = birkhoff_quantum(H, rot, 6, 8)
    assert remainder
    assert defect(remainder) == 0.0
    assert all(defect(F) == 0.0 for F in generators)


@pytest.mark.parametrize("with_cos", [False, True], ids=["static", "cos_t"])
def test_series_remainders_are_exactly_real(with_cos):
    H, rot = _hamiltonian(1, 8, with_cos)
    symbol = weyl_symbol_of_word(H, 2, 8)
    symbol = symbol + FTSeries.monomial(1, (3,), (0,), coeff=1e-15, max_weight=8)
    assert 0.0 < defect(symbol) < 1e-12
    for nf, generators, remainder in (
        birkhoff_classical(symbol, rot, 6, 8),
        birkhoff_semiclassical(symbol, rot, 6, 2, 8),
    ):
        assert remainder
        assert defect(remainder) == 0.0
        assert all(defect(F) == 0.0 for F in generators)


def test_conjugations_and_sweeps_reject_input_that_is_not_symmetric():
    H, rot = _hamiltonian(1, 8)
    F = WordPoly.word(1, mu=(3,), coeff=0.01, max_grade=8)
    F_sym = F + adjoint(F)
    with pytest.raises(ValueError, match="generator is not symmetric"):
        exp_conjugate(H, F, 8)
    with pytest.raises(ValueError, match="not symmetric"):
        exp_conjugate(H + F, F_sym, 8)
    with pytest.raises(ValueError, match="Hamiltonian is not symmetric"):
        birkhoff_quantum(H + F, rot, 6, 8)

    symbol = weyl_symbol_of_word(H, 0, 8)
    G = FTSeries.monomial(1, (3,), (0,), coeff=0.01, max_weight=8)
    G_real = G + G.conjugate_symbol()
    for hbar_order in (None, 2):
        with pytest.raises(ValueError, match="generator is not a real symbol"):
            lie_conjugate(symbol, G, hbar_order, 8)
        with pytest.raises(ValueError, match="not a real symbol"):
            lie_conjugate(symbol + G, G_real, hbar_order, 8)
    with pytest.raises(ValueError, match="Hamiltonian is not a real symbol"):
        birkhoff_classical(symbol + G, rot, 6, 8)
    with pytest.raises(ValueError, match="Hamiltonian is not a real symbol"):
        birkhoff_semiclassical(symbol + G, rot, 6, 2, 8)
    # an imaginary multiple of a real symbol is rejected, not realified
    with pytest.raises(ValueError, match="not a real symbol"):
        lie_conjugate(symbol, G_real * 1j, None, 8)
