"""The shared graded container and the closed-form ad_{H0} eigenvalues."""

import math
from itertools import product

import pytest

from orbitbnf.bridge import weyl_symbol_of_word
from orbitbnf.classical import ad_eigenvalue as series_eigenvalue
from orbitbnf.classical import bracket_operation, h0_series
from orbitbnf.graded import key_grade
from orbitbnf.quantum import ad_eigenvalue as word_eigenvalue
from orbitbnf.quantum import h0_word
from orbitbnf.series import FTSeries, RotationData
from orbitbnf.words import WordPoly, commutator_over_ihbar

THETAS = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(5.0) - 2.0)


def _shift_classes(dim, max_shift=8, max_mode=3):
    """Representative (mu, nu, m) of every class with |mu - nu|_1 <= max_shift."""
    for shift in product(range(-max_shift, max_shift + 1), repeat=dim):
        if sum(map(abs, shift)) > max_shift:
            continue
        mu = tuple(max(e, 0) for e in shift)
        nu = tuple(max(-e, 0) for e in shift)
        for m in range(-max_mode, max_mode + 1):
            yield mu, nu, m


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_eigenvalues_match_the_brackets(dim):
    """ad_{H0} maps each representative monomial or word to the closed-form
    multiple of itself, for the Poisson bracket, the Moyal bracket and the
    word commutator."""
    rot = RotationData(THETAS[:dim], resonance_order=8, margin=0.0)
    h0s, h0w = h0_series(rot), h0_word(rot)
    brackets = [bracket_operation("poisson"), bracket_operation(("moyal", 2))]
    worst = 0.0
    for mu, nu, m in _shift_classes(dim):
        key = (mu, nu, m, 0, 0)
        lam = series_eigenvalue(rot.theta, key)
        mono = FTSeries.monomial(dim, mu, nu, m=m)
        for apply in brackets:
            worst = max(worst, (apply(h0s, mono) - mono.scaled(lam)).max_abs_coeff())
        word = WordPoly.word(dim, mu, nu, m=m)
        image = commutator_over_ihbar(h0w, word)
        worst = max(worst, (image - word.scaled(word_eigenvalue(rot.theta, key))).max_abs_coeff())
    assert worst <= 1e-14


@pytest.mark.parametrize("cls", [FTSeries, WordPoly])
@pytest.mark.parametrize(
    "key",
    [
        ((-1,), (0,), 0, 0, 0),  # negative exponent
        ((0,), (0,), 0, -1, 0),  # negative tau / D_t power
        ((0, 1), (0,), 0, 0, 0),  # multi-index of the wrong length
        ((1,), (0,), 1.5, 0, 0),  # non-integer Fourier mode
    ],
)
def test_constructors_reject_malformed_keys(cls, key):
    with pytest.raises(ValueError):
        cls(1, {key: 1.0})
    mu, nu, m, j, k = key
    record = {"mu": list(mu), "nu": list(nu), "m": m, "j": j, "k": k, "re": 1.0}
    with pytest.raises(ValueError):
        cls.from_records(1, [record])


def test_series_and_words_never_mix():
    s = FTSeries.constant(1, 1.0)
    w = WordPoly.constant(1, 1.0)
    assert list(s.items()) == list(w.items())
    assert s != w
    with pytest.raises(TypeError):
        s + w
    with pytest.raises(TypeError):
        s * w


def test_cap_keywords_and_json_keep_their_names():
    s = FTSeries.zero(2, max_weight=4)
    w = WordPoly.from_records(1, WordPoly.word(1, mu=(2,)).to_records(), max_grade=3)
    assert s.max_weight == 4 and w.max_grade == 3
    assert '"max_weight":4' in s.to_json() and '"max_grade":3' in w.to_json()
    assert FTSeries.from_json(s.to_json()).max_weight == 4
    assert WordPoly.from_json(w.to_json()) == w


@pytest.mark.parametrize("cls", [FTSeries, WordPoly])
def test_sum_of_two_caps_keeps_only_the_smaller_cap(cls):
    """a + b is truncated at min(cap_a, cap_b); terms of b above it are dropped."""
    terms = {((g - 2 * k,), (0,), 0, 0, k): 1.0 + g for g in range(7) for k in (0, 1) if g >= 2 * k}
    a, b = cls(1, terms, 4), cls(1, terms, 6)
    assert max(map(key_grade, b.keys())) == 6
    for total in (a + b, b + a):
        assert all(key_grade(key) <= 4 for key in total.keys())
        assert total == a.scaled(2.0) and total._cap == 4


@pytest.mark.parametrize("k", [1, 2])
def test_weyl_symbol_of_a_word_with_hbar_stays_within_the_weight(k):
    """The hbar^k of a word raises its symbol's weight by 2k; the result keeps
    only the terms of weight <= max_weight."""
    word = WordPoly(1, {((2,), (2,), 0, 0, k): 1.0, ((1,), (1,), 0, 0, k): 0.5})
    for w in range(2 * k, 9):
        symbol = weyl_symbol_of_word(word, hbar_order=4, max_weight=w)
        assert all(key_grade(key) <= w for key in symbol.keys())
        assert symbol == weyl_symbol_of_word(word, 4).truncated(w)
