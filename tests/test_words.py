"""Normal-ordered word algebra: products, commutators, basis action."""

import math
import random

import pytest

from orbitbnf import words
from orbitbnf.graded import is_resonant_key
from orbitbnf.normalform import NormalForm
from orbitbnf.series import FTSeries
from orbitbnf.words import (
    adjoint,
    apply_to_basis,
    commutator_over_ihbar,
    diagonal_to_normal_form,
    key_grade,
    normal_form_to_word,
    normal_order_product,
    WordPoly,
)
from oracle_helpers import matrix_element


def random_word_poly(rng, dim, terms=3, max_letters=2):
    out = WordPoly.zero(dim)
    for _ in range(terms):
        mu = tuple(rng.randint(0, max_letters) for _ in range(dim))
        nu = tuple(rng.randint(0, max_letters) for _ in range(dim))
        out = out + WordPoly.word(
            dim,
            mu=mu,
            nu=nu,
            m=rng.randint(-2, 2),
            j=rng.randint(0, 1),
            k=rng.randint(0, 1),
            coeff=rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)),
        )
    return out


def test_canonical_commutation_relation_is_exact():
    for dim in (1, 2):
        for i in range(dim):
            a = WordPoly.annihilation(dim, i)
            c = WordPoly.creation(dim, i)
            comm = normal_order_product(a, c) - normal_order_product(c, a)
            hbar_unit = WordPoly.word(dim, k=1)
            assert (comm - hbar_unit).max_abs_coeff() == 0.0


def test_cross_mode_operators_commute():
    a0 = WordPoly.annihilation(2, 0)
    c1 = WordPoly.creation(2, 1)
    comm = normal_order_product(a0, c1) - normal_order_product(c1, a0)
    assert comm.max_abs_coeff() == 0.0


def test_reordering_produces_the_binomial_ladder():
    """a^2 (a+)^2 = (a+)^2 a^2 + 4 hbar a+ a + 2 hbar^2."""
    a = WordPoly.annihilation(1, 0)
    c = WordPoly.creation(1, 0)
    a2 = normal_order_product(a, a)
    c2 = normal_order_product(c, c)
    lhs = normal_order_product(a2, c2)
    expected = (
        WordPoly.word(1, mu=(2,), nu=(2,))
        + WordPoly.word(1, mu=(1,), nu=(1,), k=1, coeff=4.0)
        + WordPoly.word(1, k=2, coeff=2.0)
    )
    assert (lhs - expected).max_abs_coeff() == 0.0


def test_grade_law_of_products():
    rng = random.Random(11)
    for _ in range(20):
        dim = rng.choice((1, 2))
        A = random_word_poly(rng, dim)
        B = random_word_poly(rng, dim)
        if not A.keys() or not B.keys():
            continue
        ga = max(key_grade(k) for k in A.keys())
        gb = max(key_grade(k) for k in B.keys())
        for key in normal_order_product(A, B).keys():
            assert key_grade(key) <= ga + gb


def test_explicit_max_grade_overrides_operand_caps():
    a = WordPoly.word(1, mu=(2,), max_grade=3)
    b = WordPoly.word(1, mu=(2,), max_grade=3)
    wide = normal_order_product(a, b, max_grade=8)
    assert wide.coeff(((4,), (0,), 0, 0, 0)) == 1.0
    narrow = normal_order_product(a, b, max_grade=3)
    assert narrow.max_abs_coeff() == 0.0


def test_adjoint_is_an_antihomomorphic_involution():
    rng = random.Random(12)
    A = random_word_poly(rng, 2)
    B = random_word_poly(rng, 2)
    assert (adjoint(adjoint(A)) - A).max_abs_coeff() == 0.0
    lhs = adjoint(normal_order_product(A, B))
    rhs = normal_order_product(adjoint(B), adjoint(A))
    assert (lhs - rhs).max_abs_coeff() == 0.0
    # real int/float coefficients come back as complex numbers
    W = WordPoly(1, {((1,), (0,), 1, 1, 0): 2, ((0,), (0,), 0, 0, 1): 0.5})
    assert [(key, repr(c)) for key, c in adjoint(W).items()] == [
        (((0,), (1,), -1, 1, 0), "(2+0j)"),
        (((0,), (1,), -1, 0, 1), "(-2+0j)"),
        (((0,), (0,), 0, 0, 1), "(0.5+0j)"),
    ]
    assert adjoint(adjoint(W)) == W


def test_commutator_over_ihbar_of_number_operator_counts_letters():
    """[a+a, w]/(i hbar) has eigenvalue -i(mu - nu) on a pure word."""
    n_op = WordPoly.word(1, mu=(1,), nu=(1,))
    w = WordPoly.word(1, mu=(3,), nu=(1,))
    out = commutator_over_ihbar(n_op, w)
    expected = w.scaled(-2j)
    assert (out - expected).max_abs_coeff() < 1e-15


def test_commutator_over_ihbar_jacobi_and_leibniz():
    rng = random.Random(13)
    A = random_word_poly(rng, 1)
    B = random_word_poly(rng, 1)
    C = random_word_poly(rng, 1)
    jac = (
        commutator_over_ihbar(commutator_over_ihbar(A, B), C)
        + commutator_over_ihbar(commutator_over_ihbar(B, C), A)
        + commutator_over_ihbar(commutator_over_ihbar(C, A), B)
    )
    assert jac.max_abs_coeff() == 0.0
    bc = normal_order_product(B, C)
    leib = commutator_over_ihbar(A, bc) - (
        normal_order_product(commutator_over_ihbar(A, B), C)
        + normal_order_product(B, commutator_over_ihbar(A, C))
    )
    assert leib.max_abs_coeff() == 0.0


def test_commutator_shifts_the_grade_down_by_two():
    """Every commutator term loses one hbar against the product grading."""
    rng = random.Random(17)
    A = random_word_poly(rng, 1)
    B = random_word_poly(rng, 1)
    if not A.keys() or not B.keys():
        pytest.skip("degenerate draw")
    ga = max(key_grade(k) for k in A.keys())
    gb = max(key_grade(k) for k in B.keys())
    comm = commutator_over_ihbar(A, B)
    for key in comm.keys():
        assert key_grade(key) <= ga + gb - 2


def _ladder_pair():
    """Two 1-mode words with contractions, a D_t power and a Fourier mode."""
    a = WordPoly.creation(1, 0) + WordPoly.annihilation(1, 0) + WordPoly.word(1, (1,), (1,), j=1)
    b = WordPoly.word(1, mu=(2,), nu=(1,), m=1, coeff=0.5) + WordPoly.word(1, nu=(2,), coeff=-1.5)
    return a, b


@pytest.mark.parametrize("reads", [(True, True), (True, False), (False, True)])
def test_commutator_accepts_products_whose_keys_were_read(monkeypatch, reads):
    """A wrapper of normal_order_product that reads a result's keys before
    returning it leaves the commutator the same by repr, whichever of AB
    and BA it reads."""
    a, b = _ladder_pair()
    expected = {half: commutator_over_ihbar(a, b, half=half) for half in (False, True)}
    original = words.normal_order_product
    read = []

    def product(x, y, *args, **kwargs):
        out = original(x, y, *args, **kwargs)
        if reads[len(read) % 2]:
            out.items()
        read.append(out._view is not None)
        return out

    monkeypatch.setattr(words, "normal_order_product", product)
    for half, want in expected.items():
        got = commutator_over_ihbar(a, b, half=half)
        assert got and got.max_grade == want.max_grade
        assert repr(list(got.items())) == repr(list(want.items()))
    assert read == [*reads, *reads]


def test_one_commutator_makes_two_product_calls_through_the_module(monkeypatch):
    """The commutator looks up words.normal_order_product at call time and
    calls it exactly twice, for AB and for BA: the benchmark's smoke check
    (perfbench/check_smoke.py) counts two product spans per commutator."""
    a, b = _ladder_pair()
    original = words.normal_order_product
    calls = []

    def product(x, y, *args, **kwargs):
        calls.append((id(x), id(y)))
        return original(x, y, *args, **kwargs)

    monkeypatch.setattr(words, "normal_order_product", product)
    words.commutator_over_ihbar(a, b)
    assert calls == [(id(a), id(b)), (id(b), id(a))]


def test_apply_to_basis_ladder_amplitudes():
    hbar = 0.1
    c = WordPoly.creation(1, 0)
    out = apply_to_basis(c, ((3,), 0), hbar)
    assert set(out) == {((4,), 0)}
    assert abs(out[((4,), 0)] - math.sqrt(4 * hbar)) < 1e-15
    a = WordPoly.annihilation(1, 0)
    out = apply_to_basis(a, ((3,), 0), hbar)
    assert set(out) == {((2,), 0)}
    assert abs(out[((2,), 0)] - math.sqrt(3 * hbar)) < 1e-15


def test_apply_to_basis_handles_fourier_and_time_derivative():
    hbar = 0.25
    w = WordPoly.word(1, m=2, j=1)
    out = apply_to_basis(w, ((1,), 3), hbar)
    assert set(out) == {((1,), 5)}
    assert abs(out[((1,), 5)] - 3 * hbar) < 1e-15


def test_matrix_element_matches_apply():
    rng = random.Random(14)
    A = random_word_poly(rng, 1, terms=4)
    hbar = 0.1
    ket = ((2,), 1)
    out = apply_to_basis(A, ket, hbar)
    for bra, amp in out.items():
        assert abs(matrix_element(A, bra, ket, hbar) - amp) < 1e-14


def test_diagonal_to_normal_form_absorbs_the_half_shift():
    """a+ a has Wick value mu hbar = p - hbar/2, so the table carries both."""
    n_op = WordPoly.word(1, mu=(1,), nu=(1,))
    nf = diagonal_to_normal_form(n_op)
    assert abs(nf.coeff((1,), 0, 0) - 1.0) < 1e-15
    assert abs(nf.coeff((0,), 0, 1) + 0.5) < 1e-15


def test_diagonal_to_normal_form_rejects_a_series():
    """The symbol z zbar is 2p, not the word a^+ a = p - hbar/2: series go
    through NormalForm.from_resonant_series."""
    with pytest.raises(TypeError, match="expected WordPoly"):
        diagonal_to_normal_form(FTSeries.monomial(1, (1,), (1,), coeff=0.5))


def test_normal_form_to_word_inverts_the_diagonal_map():
    """Exactly, on dyadic coefficients."""
    nf = NormalForm(
        1, {((2,), 0, 0): 0.5, ((1,), 1, 0): 1.5, ((0,), 0, 2): -0.25}
    )
    word = normal_form_to_word(nf)
    back = diagonal_to_normal_form(word)
    assert dict(back.items()) == dict(nf.items())


def test_diagonal_split():
    rng = random.Random(15)
    A = random_word_poly(rng, 1, terms=6)
    diagonal = A.filtered(is_resonant_key)
    off_diagonal = A.filtered(lambda key: not is_resonant_key(key))
    assert (diagonal + off_diagonal - A).max_abs_coeff() == 0.0
    for key in diagonal.keys():
        mu, nu, m = key[0], key[1], key[2]
        assert mu == nu and m == 0


def test_serialization_roundtrip():
    rng = random.Random(16)
    A = random_word_poly(rng, 2, terms=5)
    assert (WordPoly.from_records(2, A.to_records()) - A).max_abs_coeff() == 0.0
