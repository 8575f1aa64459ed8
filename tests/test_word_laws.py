"""Algebraic laws of the word algebra, as hypothesis property tests.

Coefficients are Gaussian integers and exponents are small, so every
product, sum and structure constant is an exactly representable float and
each law of the word algebra holds with a residual of exactly zero.  The
Weyl-map law is held to 1e-13 of scale, because the symbol carries the
rounded factors 2^{-1/2}.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitbnf.bridge import weyl_symbol_of_word
from orbitbnf.words import WordPoly, adjoint, key_grade, normal_order_product
from orbitbnf.words import commutator_over_ihbar as comm

LAWS = settings(deadline=None, max_examples=40)


@st.composite
def words(draw, dim):
    """A WordPoly of 1-3 terms with D_t powers, Fourier modes and hbar."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        key = (
            tuple(draw(st.integers(0, 2)) for _ in range(dim)),
            tuple(draw(st.integers(0, 2)) for _ in range(dim)),
            draw(st.integers(-2, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 1)),
        )
        terms[key] = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return WordPoly(dim, terms)


@st.composite
def word_tuples(draw, n):
    dim = draw(st.integers(1, 2))
    return tuple(draw(words(dim)) for _ in range(n))


@LAWS
@given(word_tuples(3))
def test_product_is_associative(abc):
    a, b, c = abc
    residual = normal_order_product(normal_order_product(a, b), c) - normal_order_product(
        a, normal_order_product(b, c)
    )
    assert not residual


@LAWS
@given(word_tuples(3))
def test_commutator_satisfies_jacobi(abc):
    a, b, c = abc
    assert not comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))


@LAWS
@given(word_tuples(3))
def test_commutator_is_a_derivation_of_the_product(abc):
    a, b, c = abc
    lhs = comm(a, normal_order_product(b, c))
    rhs = normal_order_product(comm(a, b), c) + normal_order_product(b, comm(a, c))
    assert not lhs - rhs


@LAWS
@given(word_tuples(1))
def test_adjoint_is_an_involution(a):
    (a,) = a
    assert adjoint(adjoint(a)) == a


@LAWS
@given(word_tuples(1), st.integers(0, 8))
def test_weyl_symbol_of_the_adjoint_is_the_conjugate_symbol(a, hbar_order):
    """Op(conj sigma) = Op(sigma)^+: the closed-form Weyl map commutes with the
    adjoint up to the rounding of its 2^{-1/2} factors."""
    (a,) = a
    symbol = weyl_symbol_of_word(a, hbar_order)
    gap = weyl_symbol_of_word(adjoint(a), hbar_order) - symbol.conjugate_symbol()
    assert gap.max_abs_coeff() <= 1e-13 * symbol.max_abs_coeff()


@LAWS
@given(word_tuples(2), st.integers(2, 8))
def test_product_grade_is_the_sum_of_the_factor_grades(ab, cap):
    a, b = ab
    for key_a, c_a in a.items():
        for key_b, c_b in b.items():
            term = normal_order_product(WordPoly(a.dim, {key_a: c_a}), WordPoly(a.dim, {key_b: c_b}))
            grade = key_grade(key_a) + key_grade(key_b)
            assert {key_grade(key) for key in term.keys()} == {grade}
    assert normal_order_product(a, b, cap) == normal_order_product(a, b).truncated(cap)
