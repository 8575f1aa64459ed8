"""The shared graded container and the closed-form ad_{H0} eigenvalues."""

import math
from itertools import product

import pytest

from orbitbnf.bridge import weyl_symbol_of_word
from orbitbnf.classical import ad_eigenvalue as series_eigenvalue
from orbitbnf.classical import h0_series
from orbitbnf.graded import key_grade, max_coeff_difference
from orbitbnf.quantum import ad_eigenvalue as word_eigenvalue
from orbitbnf.quantum import h0_word
from orbitbnf.series import FTSeries, RotationData, moyal_bracket, poisson_bracket
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
    brackets = [poisson_bracket, lambda a, b: moyal_bracket(a, b, 2)]
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
    with pytest.raises(TypeError):
        w * s
    assert 2 * w == w * 2 == w.scaled(2)


def test_cap_keywords_keep_their_names():
    s = FTSeries.zero(2, max_weight=4)
    w = WordPoly.from_records(1, WordPoly.word(1, mu=(2,)).to_records(), max_grade=3)
    assert s.max_weight == 4 and w.max_grade == 3
    assert FTSeries.from_records(2, s.to_records(), max_weight=4).max_weight == 4
    assert WordPoly.from_records(1, w.to_records(), max_grade=3) == w


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


class _Pairs(list):
    """Term pairs read through ``items()`` as a dict would be, keys repeating."""

    def items(self):
        return list(self)


NU1 = ((0,), (1,), 0, 0, 0)  # the key of a (a word) or zbar (a symbol)


@pytest.mark.parametrize("cls", [FTSeries, WordPoly])
@pytest.mark.parametrize(
    "pairs,cap,expected",
    [
        # insertion order, a repeated key summed in place, an exact zero and a
        # key above the cap dropped, a cancelled key re-entered at the end
        (
            [
                (NU1, 1.0),
                (((2,), (0,), 1, 0, 0), 0.0),
                (((5,), (0,), 0, 0, 0), 2.0),
                (((1,), (1,), -1, 1, 0), -1j),
                (NU1, 0.5),
                (((0,), (0,), 0, 0, 1), 0.25),
                (((1,), (1,), -1, 1, 0), 1j),
                (((1,), (1,), -1, 1, 0), 3.0),
            ],
            4,
            [(NU1, 1.5), (((0,), (0,), 0, 0, 1), 0.25), (((1,), (1,), -1, 1, 0), 3.0)],
        ),
        # the packed-key bounds: grade 255 in one exponent and in j and k, |m| = 127
        (
            [(((255,), (0,), 0, 0, 0), 1.0), (NU1, -2.0), (((1,), (0,), 0, 63, 64), 0.5)],
            math.inf,
            [(((255,), (0,), 0, 0, 0), 1.0), (NU1, -2.0), (((1,), (0,), 0, 63, 64), 0.5)],
        ),
        (
            [(NU1, 0.5), (((1,), (0,), -127, 2, 1), 1j), (((0,), (2,), 127, 0, 0), -1.0)],
            math.inf,
            [(NU1, 0.5), (((1,), (0,), -127, 2, 1), 1j), (((0,), (2,), 127, 0, 0), -1.0)],
        ),
    ],
)
def test_constructor_round_trips_through_items_by_repr(cls, pairs, cap, expected):
    poly = cls(1, _Pairs(pairs), cap)
    assert repr(list(poly.items())) == repr(expected)
    assert len(poly) == len(expected)
    assert [poly.coeff(key) for key, _c in expected] == [c for _key, c in expected]
    assert repr(cls.from_records(1, poly.to_records(), cap).to_records()) == repr(poly.to_records())


@pytest.mark.parametrize("cls", [FTSeries, WordPoly])
@pytest.mark.parametrize(
    "key",
    [
        ((256,), (0,), 0, 0, 0),  # grade 256 in one exponent
        ((0,), (0,), 0, 64, 64),  # grade 256 in j and k
        ((1,), (0,), 128, 0, 0),  # |m| = 128
        ((1,), (0,), -128, 0, 0),
    ],
)
def test_keys_past_the_packed_bounds_raise_at_construction(cls, key):
    """Grades up to 255 and |m| up to 127 fill the 8-bit fields; one more
    raises from the constructor and from ``from_records``, also next to keys
    within the bounds, and also when its two coefficients cancel, since the
    key is checked before it is packed."""
    terms = {NU1: 1.0, key: 0.5}
    mu, nu, m, j, k = key
    record = {"mu": list(mu), "nu": list(nu), "m": m, "j": j, "k": k, "re": 0.5}
    for build in (
        lambda: cls(1, terms),
        lambda: cls.from_records(1, [record]),
        lambda: cls(1, _Pairs([(NU1, 1.0), (key, 0.5), (key, -0.5)])),
    ):
        with pytest.raises(ValueError, match="packed-key bounds"):
            build()


@pytest.mark.parametrize("cls", [FTSeries, WordPoly])
def test_a_coefficient_given_as_a_string_is_refused(cls):
    """The constructor tests the coefficient itself, so a string is neither
    parsed nor let through to a TypeError."""
    with pytest.raises(ValueError, match=r"coefficient of \(\(1,\), \(0,\), 0, 0, 0\) must be a number"):
        cls(1, {((1,), (0,), 0, 0, 0): "0.3"})


@pytest.mark.parametrize("cls", [FTSeries, WordPoly])
def test_a_scalar_that_is_not_a_number_is_refused(cls):
    """``scaled`` and both products read the scalar by the constructors' rule."""
    p = cls(1, {NU1: 1.0})
    for build in (lambda: p.scaled("0.3"), lambda: p * "0.3", lambda: "0.3" * p,
                  lambda: p * None):
        with pytest.raises(ValueError, match="the scalar must be a number, not"):
            build()
    with pytest.raises(ValueError, match="the scalar must be finite, not nan"):
        p.scaled(math.nan)


NON_FINITE = [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0)]


@pytest.mark.parametrize("cls", [FTSeries, WordPoly])
@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_coefficients_and_scalars_raise(cls, value):
    """A coefficient or scalar that is not finite raises ValueError from the
    constructor (also on a key above the cap), ``from_records`` and
    ``scaled``."""
    c = complex(value)
    record = {"mu": [0], "nu": [1], "m": 0, "j": 0, "k": 0, "re": c.real, "im": c.imag}
    for build in (
        lambda: cls(1, {NU1: 1.0, ((1,), (1,), 0, 0, 0): value}),
        lambda: cls(1, {((4,), (0,), 0, 0, 0): value}, 2),
        lambda: cls.from_records(1, [record]),
        lambda: cls(1, {NU1: 1.0}).scaled(value),
        lambda: value * cls(1, {NU1: 1.0}),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            build()


@pytest.mark.parametrize("h0", [h0_series, h0_word])
@pytest.mark.parametrize("E", [math.nan, math.inf])
def test_quadratic_parts_reject_a_non_finite_energy(h0, E):
    rot = RotationData(THETAS[:1], resonance_order=8, margin=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        h0(rot, E)


def _ref_merged(a_terms, b_terms, cap, sign):
    """a + sign * b on tuple keys, below ``cap``, in the library's merge order."""
    out = {key: c for key, c in a_terms.items() if key_grade(key) <= cap}
    for key, c in b_terms.items():
        if key_grade(key) > cap:
            continue
        if key not in out:
            out[key] = c if sign > 0 else -c
            continue
        total = out[key] + c if sign > 0 else out[key] - c
        if total:
            out[key] = total
        else:
            del out[key]
    return out


@pytest.mark.parametrize("cls", [FTSeries, WordPoly])
@pytest.mark.parametrize("mode", [3, 127])
@pytest.mark.parametrize("caps", [(math.inf, math.inf), (8, 6), (6, math.inf)])
def test_linear_structure_across_caps_matches_tuple_key_arithmetic(cls, mode, caps):
    a_terms = {
        NU1: 1.0 + 2j,
        ((2,), (1,), 1, 1, 0): -0.5,
        ((3,), (3,), 0, 0, 1): 0.75,
        ((0,), (0,), -2, 2, 0): 2.0,
    }
    b_terms = {
        ((3,), (3,), 0, 0, 1): 0.75,
        ((1,), (0,), mode, 0, 0): 1j,
        NU1: -1.0 - 2j,
        ((4,), (2,), 0, 0, 0): 0.125,
        ((0,), (0,), -2, 2, 0): 0.5,
    }
    a, b = cls(1, a_terms, caps[0]), cls(1, b_terms, caps[1])
    a_kept = {key: c for key, c in a_terms.items() if key_grade(key) <= caps[0]}
    b_kept = {key: c for key, c in b_terms.items() if key_grade(key) <= caps[1]}
    cap = min(caps)
    for got, want in (
        (a + b, _ref_merged(a_kept, b_kept, cap, 1)),
        (b + a, _ref_merged(b_kept, a_kept, cap, 1)),
        (a - b, _ref_merged(a_kept, b_kept, cap, -1)),
        (b - a, _ref_merged(b_kept, a_kept, cap, -1)),
    ):
        assert repr(list(got.items())) == repr(list(want.items()))
        assert got._cap == cap
    keys = a_kept.keys() | b_kept.keys()
    gap = max(abs(a_kept.get(key, 0) - b_kept.get(key, 0)) for key in keys)
    assert max_coeff_difference(a, b) == max_coeff_difference(b, a) == gap
    # equal terms compare equal across caps; a changed coefficient does not
    narrow = b - cls(1, {((1,), (0,), mode, 0, 0): 1j})
    rest = {key: c for key, c in b_kept.items() if key[2] != mode}
    assert narrow == cls(1, rest) and cls(1, rest, 8) == narrow
    assert narrow != cls(1, {**rest, NU1: 1.0}) and narrow != a
