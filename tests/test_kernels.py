"""The product kernels against their straight-loop reference versions.

``normal_order_product`` and the Moyal sum read their structure constants
from the shared contraction table ``graded._contractions``, through the one
row cache ``graded._row``, and every kernel (those two and
``poisson_bracket``) builds its keys as packed ints after the one call
set-up ``graded._packed_operands``.  The reference functions below build
tuple keys and recompute every factor per term pair, in the same loop order
and with the same arithmetic, so the library must agree with them exactly
(``==`` of the stored terms, no tolerance) and store the terms in the same
order.  The pointwise reference loop checks ``moyal_product(a, b, 0)`` on
hbar-free operands, the commutative product of symbols.
"""

import math
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from orbitbnf import graded, series, words
from orbitbnf.series import (
    FTSeries,
    moyal_bracket,
    moyal_product,
    poisson_bracket,
)
from orbitbnf.words import WordPoly, adjoint, commutator_over_ihbar, normal_order_product

INF = math.inf


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _grade(key):
    mu, nu, _m, j, k = key
    return sum(mu) + sum(nu) + 2 * j + 2 * k


def _charge(key):
    return sum(key[0]) - sum(key[1])


def _ref_word_product(a, b, cap, half=False, contracted=False):
    """A*B normal-ordered, every contraction factor recomputed per term pair.

    ``half`` keeps the pairs whose charges sum to ``<= 0`` and meets the
    b-terms in charge order (a stable sort), as the kernel does;
    ``contracted`` leaves out each pair's juxtaposition term (l = 0, d = j1).
    """
    b_items = list(b._terms.items())
    if half:
        b_items.sort(key=lambda item: _charge(item[0]))
    out = {}
    for (mu1, nu1, m1, j1, k1), c1 in a._terms.items():
        for (mu2, nu2, m2, j2, k2), c2 in b_items:
            if _grade((mu1, nu1, m1, j1, k1)) + _grade((mu2, nu2, m2, j2, k2)) > cap:
                continue
            if half and _charge((mu1, nu1)) + _charge((mu2, nu2)) > 0:
                continue
            base = c1 * c2
            for d in range(j1, -1, -1):
                if m2 == 0 and d != j1:
                    break
                f_d = math.comb(j1, d) * (m2 ** (j1 - d))
                if not f_d:
                    continue
                for l in iproduct(*[range(min(n, m) + 1) for n, m in zip(nu1, mu2)]):
                    if contracted and d == j1 and not any(l):
                        continue
                    f_l = 1
                    for i, li in enumerate(l):
                        f_l *= math.factorial(li) * math.comb(mu2[i], li) * math.comb(nu1[i], li)
                    key = (
                        _add(mu1, _sub(mu2, l)),
                        _add(_sub(nu1, l), nu2),
                        m1 + m2,
                        d + j2,
                        k1 + k2 + (j1 - d) + sum(l),
                    )
                    c = base * (f_d * f_l)
                    out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c and _grade(key) <= cap}


def _ref_moyal_factor(t1, t2, x, y, u, v):
    (mu1, nu1, m1, j1, _), (mu2, nu2, m2, j2, _) = t1, t2
    num, den = 1, 1
    for i, xi in enumerate(x):
        num *= math.perm(nu1[i], xi) * math.perm(mu2[i], xi)
        den *= math.factorial(xi)
    for i, yi in enumerate(y):
        num *= math.perm(mu1[i], yi) * math.perm(nu2[i], yi)
        den *= math.factorial(yi)
    num *= (m1**u) * math.perm(j2, u) * (m2**v) * math.perm(j1, v)
    den *= (2**u) * math.factorial(u) * (2**v) * math.factorial(v)
    return Fraction(num, den)


def _ref_moyal_sum(a, b, hbar_order, cap, antisymmetric):
    """a # b, or (a # b - b # a)/(i hbar), one Fraction factor per term."""
    shift = 1 if antisymmetric else 0
    out = {}
    for t1, c1 in a._terms.items():
        mu1, nu1, m1, j1, k1 = t1
        for t2, c2 in b._terms.items():
            mu2, nu2, m2, j2, k2 = t2
            if _grade(t1) + _grade(t2) - 2 * shift > cap:
                continue
            base = c1 * c2
            x_ranges = [range(min(n, m) + 1) for n, m in zip(nu1, mu2)]
            y_ranges = [range(min(n, m) + 1) for n, m in zip(mu1, nu2)]
            for x in iproduct(*x_ranges):
                for y in iproduct(*y_ranges):
                    for u in range((j2 if m1 != 0 else 0) + 1):
                        for v in range((j1 if m2 != 0 else 0) + 1):
                            q = sum(x) + sum(y) + u + v
                            if antisymmetric and q % 2 == 0:
                                continue
                            if k1 + k2 + q - shift > hbar_order:
                                continue
                            frac = _ref_moyal_factor(t1, t2, x, y, u, v)
                            sign = -1 if (sum(x) + u) % 2 else 1
                            key = (
                                _add(_sub(mu1, y), _sub(mu2, x)),
                                _add(_sub(nu1, x), _sub(nu2, y)),
                                m1 + m2,
                                j1 + j2 - u - v,
                                k1 + k2 + q - shift,
                            )
                            if antisymmetric:
                                c = -1j * (base * float(2 * sign * frac))
                            else:
                                c = base * float(-frac if sign < 0 else frac)
                            out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c and _grade(key) <= cap}


def _unit(dim, i):
    return tuple(1 if a == i else 0 for a in range(dim))


def _ref_poisson_bracket(a, b, cap):
    """{a, b} with every derivative factor taken per term pair."""
    out = {}
    for t1, c1 in a._terms.items():
        mu1, nu1, m1, j1, k1 = t1
        for t2, c2 in b._terms.items():
            mu2, nu2, m2, j2, k2 = t2
            if _grade(t1) + _grade(t2) - 2 > cap:
                continue
            base = c1 * c2
            for i in range(a.dim):
                f = nu1[i] * mu2[i] - mu1[i] * nu2[i]
                if f:
                    e = _unit(a.dim, i)
                    key = (
                        _sub(_add(mu1, mu2), e),
                        _sub(_add(nu1, nu2), e),
                        m1 + m2,
                        j1 + j2,
                        k1 + k2,
                    )
                    c = 1j * (base * (2 * f))
                    out[key] = out[key] + c if key in out else c
            f = m1 * j2 - j1 * m2
            if f:
                key = (_add(mu1, mu2), _add(nu1, nu2), m1 + m2, j1 + j2 - 1, k1 + k2)
                c = 1j * (base * f)
                out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c and _grade(key) <= cap}


def _ref_pointwise_product(a, b, cap):
    """The commutative product of symbols: ``moyal_product(a, b, 0)`` on hbar-free operands."""
    out = {}
    for (mu1, nu1, m1, j1, k1), c1 in a._terms.items():
        for (mu2, nu2, m2, j2, k2), c2 in b._terms.items():
            key = (_add(mu1, mu2), _add(nu1, nu2), m1 + m2, j1 + j2, k1 + k2)
            if _grade(key) > cap:
                continue
            c = c1 * c2
            out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _coeff(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _operand(cls, rng, dim, cap, terms=5, max_exp=3):
    """Random operand with D_t/tau powers up to 2 and Fourier modes up to |2|.

    One low-grade term always carries both a D_t/tau power and a Fourier mode.
    """
    low = tuple(rng.randint(0, 1) for _ in range(dim))
    keys = {(low, low[::-1], rng.choice((-2, -1, 1, 2)), 1, 0): _coeff(rng)}
    for _ in range(terms):
        mu = tuple(rng.randint(0, max_exp) for _ in range(dim))
        nu = tuple(rng.randint(0, max_exp) for _ in range(dim))
        keys[(mu, nu, rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 1))] = _coeff(rng)
    return cls(dim, keys, cap)


CASES = [(dim, cap, seed) for dim in (1, 2, 3) for cap in (INF, 9) for seed in range(4)]


@pytest.mark.parametrize("dim,cap,seed", CASES)
def test_word_product_matches_reference_loop(dim, cap, seed):
    rng = random.Random(1000 * dim + seed)
    a, b = _operand(WordPoly, rng, dim, cap), _operand(WordPoly, rng, dim, cap)
    assert any(key[2] for key in b.keys()) and any(key[3] for key in a.keys())
    assert normal_order_product(a, b)._terms == _ref_word_product(a, b, cap)
    assert normal_order_product(b, a, 7)._terms == _ref_word_product(b, a, 7)


@pytest.mark.parametrize("dim,cap,seed", CASES)
def test_contracted_word_product_is_the_reference_loop_without_juxtapositions(dim, cap, seed):
    """``contracted=True`` leaves out each pair's l = 0, unshifted term, so
    the product is AB - :AB:; with and without ``half``, same terms, values
    and order by repr."""
    rng = random.Random(1000 * dim + seed)
    a, b = _operand(WordPoly, rng, dim, cap), _operand(WordPoly, rng, dim, cap)
    for half in (False, True):
        for x, y, xy_cap in ((a, b, cap), (b, a, 7)):
            for contracted in (False, True):
                got = normal_order_product(x, y, xy_cap, half=half, contracted=contracted)
                ref = _ref_word_product(x, y, xy_cap, half, contracted)
                assert repr(list(got.items())) == repr(list(ref.items()))
    if cap == INF:  # at cap 9 a pair may have no room left for a contraction
        assert normal_order_product(a, b, contracted=True)


def test_commutator_matches_the_full_reference_products():
    """The commutator against (AB - BA)/(i hbar) of the full reference
    products, juxtapositions and all, with and without ``half``: the two
    agree to 1e-12 of the products' scale, and the reference keeps at
    hbar^0 only rounding of that size."""
    formed = 0
    for dim, cap, seed in CASES:
        rng = random.Random(5000 * dim + seed)
        a, b = _operand(WordPoly, rng, dim, cap), _operand(WordPoly, rng, dim, cap)
        for half in (False, True):
            ab = _ref_word_product(a, b, cap + 2, half)
            ba = _ref_word_product(b, a, cap + 2, half)
            tol = 1e-12 * max(map(abs, [*ab.values(), *ba.values()]), default=0.0)
            want = {}
            for key in ab.keys() | ba.keys():
                mu, nu, m, j, k = key
                diff = ab.get(key, 0) - ba.get(key, 0)
                if k:
                    want[(mu, nu, m, j, k - 1)] = -1j * diff
                else:
                    assert abs(diff) <= tol
            got = commutator_over_ihbar(a, b, half=half)
            assert got.max_grade == cap
            for key in got.keys() | want.keys():
                assert abs(got.coeff(key) - want.get(key, 0)) <= tol
            formed += bool(got)
    assert formed >= len(CASES)


def _t_dependent_rooms(a, b, hbar_order, cap):
    """The bracket's hbar rooms ``hbar_order - (k1 + k2 - 1)`` of the term
    pairs under the cap whose (t, tau) block is not trivial."""
    rooms = set()
    for t1 in a.keys():
        for t2 in b.keys():
            (_, _, m1, j1, k1), (_, _, m2, j2, k2) = t1, t2
            if (m1 and j2 or m2 and j1) and _grade(t1) + _grade(t2) - 2 <= cap:
                rooms.add(hbar_order - (k1 + k2 - 1))
    return rooms


@pytest.mark.parametrize("dim,cap,seed", CASES)
def test_moyal_sum_matches_reference_loop(dim, cap, seed):
    """Equal terms in equal order, at every hbar room 0..3 of a t-dependent
    term pair, where the bracket's parity and room cuts act on the (t, tau)
    block as well as on the contractions."""
    rng = random.Random(2000 * dim + seed)
    a, b = _operand(FTSeries, rng, dim, cap), _operand(FTSeries, rng, dim, cap)
    zero = (0,) * dim  # hbar tau e^{it} against tau e^{-it}: room 0 at hbar order 0
    a = a + FTSeries.monomial(dim, zero, zero, 1, 1, 1, _coeff(rng), cap)
    b = b + FTSeries.monomial(dim, zero, zero, -1, 1, 0, _coeff(rng), cap)
    rooms = set()
    for hbar_order in range(5):
        assert list(moyal_product(a, b, hbar_order).items()) == list(
            _ref_moyal_sum(a, b, hbar_order, cap, False).items()
        )
        assert list(moyal_bracket(a, b, hbar_order).items()) == list(
            _ref_moyal_sum(a, b, hbar_order, cap, True).items()
        )
        rooms |= _t_dependent_rooms(a, b, hbar_order, cap)
    assert {0, 1, 2, 3} <= rooms
    assert list(moyal_bracket(b, a, 3, 8).items()) == list(
        _ref_moyal_sum(b, a, 3, 8, True).items()
    )


@pytest.mark.parametrize("dim,cap,seed", CASES)
def test_poisson_bracket_and_pointwise_product_match_reference_loops(dim, cap, seed):
    """The pointwise product is ``moyal_product(., ., 0)`` of the hbar-free
    slices: equal terms in equal order."""
    rng = random.Random(3000 * dim + seed)
    a, b = _operand(FTSeries, rng, dim, cap), _operand(FTSeries, rng, dim, cap)
    assert poisson_bracket(a, b)._terms == _ref_poisson_bracket(a, b, cap)
    assert poisson_bracket(b, a, 7)._terms == _ref_poisson_bracket(b, a, 7)
    a, b = a.hbar_truncated(0), b.hbar_truncated(0)
    assert list(moyal_product(a, b, 0).items()) == list(_ref_pointwise_product(a, b, cap).items())
    assert list(moyal_product(b, a, 0, 7).items()) == list(_ref_pointwise_product(b, a, 7).items())


def _assert_kernels_match(keys_a, keys_b, dim, cap, hbar_order=3):
    """Every kernel on the operands with these term keys, against its
    reference loop: same terms, same values, same insertion order."""
    rng = random.Random(len(keys_a) + 10 * len(keys_b))
    coeffs_a = {key: _coeff(rng) for key in keys_a}
    coeffs_b = {key: _coeff(rng) for key in keys_b}
    wa, wb = WordPoly(dim, coeffs_a, cap), WordPoly(dim, coeffs_b, cap)
    sa, sb = FTSeries(dim, coeffs_a, cap), FTSeries(dim, coeffs_b, cap)
    pairs = [
        (normal_order_product(wa, wb), _ref_word_product(wa, wb, cap)),
        (moyal_product(sa, sb, hbar_order), _ref_moyal_sum(sa, sb, hbar_order, cap, False)),
        (moyal_bracket(sa, sb, hbar_order), _ref_moyal_sum(sa, sb, hbar_order, cap, True)),
        (poisson_bracket(sa, sb), _ref_poisson_bracket(sa, sb, cap)),
        (
            normal_order_product(wa, wb, contracted=True),
            _ref_word_product(wa, wb, cap, contracted=True),
        ),
        (
            normal_order_product(wa, wb, half=True, contracted=True),
            _ref_word_product(wa, wb, cap, half=True, contracted=True),
        ),
    ]
    for got, ref in pairs:
        assert list(got._terms.items()) == list(ref.items())
    return pairs


def test_kernels_on_dim_0_operands():
    keys_a = [((), (), 0, 0, 0), ((), (), 2, 1, 0), ((), (), -1, 2, 1)]
    keys_b = [((), (), 1, 2, 0), ((), (), 0, 1, 1), ((), (), -3, 0, 2)]
    for cap in (INF, 6):
        pairs = _assert_kernels_match(keys_a, keys_b, 0, cap)
        assert all(got for got, _ref in pairs[:3])


def test_kernels_on_mixed_sign_fourier_modes_beyond_100():
    """Modes of both signs beyond 100 against small ones: the output modes
    reach both ends of the m field, |m| = 127."""
    keys_a = [((1,), (0,), 110, 1, 0), ((0,), (2,), -110, 2, 0), ((2,), (1,), 101, 0, 1)]
    keys_b = [((0,), (1,), -17, 2, 0), ((1,), (1,), 17, 1, 0), ((1,), (2,), -9, 0, 0)]
    for cap in (INF, 9):
        pairs = _assert_kernels_match(keys_a, keys_b, 1, cap)
        modes = {key[2] for got, _ref in pairs for key in got.keys()}
        assert {127, -127, 93, -93} <= modes


@pytest.mark.parametrize("n", [40, 63])
def test_kernels_on_high_powers_under_an_infinite_cap(n):
    """(a^+)^n a^n times itself: every contraction 0..n, and at n = 63 the
    output grade 252 lies near the top of the 8-bit fields."""
    keys = [((n,), (n,), 0, 0, 0)]
    pairs = _assert_kernels_match(keys, keys, 1, INF, hbar_order=n + 1)
    word = pairs[0][0]
    assert len(word) == n + 1
    assert {key[4] for key in word.keys()} == set(range(n + 1))


def test_word_product_moves_d_t_squared_through_fourier_modes():
    """D_t^2 against e^{imt} runs the (D_t + m hbar)^2 expansion."""
    keys_a = [((0, 0), (0, 0), 0, 2, 0), ((1, 0), (0, 1), 1, 2, 0), ((0, 1), (1, 1), -2, 2, 1)]
    keys_b = [((0, 0), (0, 0), 3, 0, 0), ((0, 1), (1, 0), -2, 1, 0), ((1, 1), (0, 0), 1, 0, 0)]
    for cap in (INF, 8):
        pairs = _assert_kernels_match(keys_a, keys_b, 2, cap)
        word, contracted = pairs[0][0], pairs[4][0]
        # D_t^2 e^{3it} = e^{3it} (D_t^2 + 6 hbar D_t + 9 hbar^2)
        got = {key[3:]: c for key, c in word.items() if key[:3] == ((0, 0), (0, 0), 3)}
        assert set(got) == {(2, 0), (1, 1), (0, 2)}
        # the contracted product keeps the shifted terms and drops D_t^2 e^{3it}
        got = {key[3:] for key in contracted.keys() if key[:3] == ((0, 0), (0, 0), 3)}
        assert got == {(1, 1), (0, 2)}


def test_kernel_insertion_order_follows_the_reference_loop():
    """Kernel outputs keep the order in which the reference loop first
    generates each key, which is what keeps written tables byte-stable."""
    rng = random.Random(7)
    for dim in (1, 2, 3):
        a = _operand(FTSeries, rng, dim, INF, terms=8)
        b = _operand(FTSeries, rng, dim, INF, terms=8)
        _assert_kernels_match(list(a.keys()), list(b.keys()), dim, 10)


def _wide_word():
    """(a^+)^70 a^70: its square has grade 280, past the 8-bit fields."""
    return WordPoly(1, {((70,), (70,), 0, 0, 0): 1.0})


def test_a_kernel_call_that_could_pass_the_packed_bounds_raises_before_forming_a_term(
    monkeypatch,
):
    """Every kernel whose ``min(cap, ga + gb)`` passes 255, or whose operand
    modes could add past 127, raises ValueError before it reads a contraction
    row or forms a term; so does every kernel called with a cap that is not
    an integer >= 0 or infinite, which would otherwise pass the bounds check
    (a NaN cap let the exponent 400 of (a^+)^200 squared overflow into the
    nu field).  Under a cap within the bounds the same operands multiply.  A
    later in-range product still matches its reference loop."""
    rows = []
    for module in (words, series):
        monkeypatch.setattr(
            module, "_row", lambda table, exps, f=graded._row: rows.append(exps) or f(table, exps)
        )
    w = _wide_word()
    s = FTSeries(1, dict(w.items()))
    high = WordPoly(1, {((1,), (0,), 100, 0, 0): 1.0})
    low = WordPoly(1, {((0,), (1,), -28, 0, 0): 1.0})
    calls = [
        lambda: normal_order_product(w, w),
        lambda: normal_order_product(w, w, half=True, contracted=True),
        lambda: commutator_over_ihbar(w, w),
        lambda: moyal_product(s, s, 71),
        lambda: moyal_bracket(s, s, 71),
        lambda: poisson_bracket(s, s),
        lambda: normal_order_product(w, w, 256),
        lambda: normal_order_product(high, low),  # |m| could reach 128
    ]
    for call in calls:
        with pytest.raises(ValueError, match="packed-key bounds"):
            call()
    lone = WordPoly(1, {((200,), (0,), 0, 0, 0): 1.0})
    for cap in (math.nan, -1, 1.5, "4"):
        for call in (
            lambda: normal_order_product(lone, lone, cap),
            lambda: normal_order_product(w, w, cap, half=True, contracted=True),
            lambda: commutator_over_ihbar(w, w, cap),
            lambda: moyal_product(s, s, 71, cap),
            lambda: moyal_bracket(s, s, 71, cap),
            lambda: poisson_bracket(s, s, cap),
        ):
            with pytest.raises(ValueError, match="max_(grade|weight) must be"):
                call()
    assert rows == []
    assert not normal_order_product(w, w, 255)  # every term has grade 280
    top = WordPoly(1, {((0,), (1,), -27, 0, 0): 1.0, ((2,), (0,), 27, 1, 0): 0.5})
    for x, y in ((high, top), (top, high)):  # |m| up to 127
        assert normal_order_product(x, y)._terms == _ref_word_product(x, y, INF)
    monkeypatch.undo()
    keys = [((40,), (40,), 0, 0, 0), ((1,), (0,), 3, 1, 0)]
    _assert_kernels_match(keys, keys, 1, INF, hbar_order=41)


# -- packed results ----------------------------------------------------------------
#
# A polynomial stores packed keys only; reading its terms builds a tuple-keyed
# view beside them.  Sums, differences and negation give the same terms,
# whether or not an operand's view was built.


def _kernel_cases(dim, cap, seed):
    """(kernel result maker, reference terms) for the three kernels, the word
    product once more on real coefficients, whose zero imaginary parts carry
    a sign."""
    rng = random.Random(4000 * dim + seed)
    wa, wb = _operand(WordPoly, rng, dim, cap), _operand(WordPoly, rng, dim, cap)
    sa, sb = _operand(FTSeries, rng, dim, cap), _operand(FTSeries, rng, dim, cap)
    ra, rb = (WordPoly(dim, {key: complex(c.real) for key, c in w.items()}, cap) for w in (wa, wb))
    return [
        (lambda: normal_order_product(wa, wb), _ref_word_product(wa, wb, cap)),
        (lambda: normal_order_product(ra, rb), _ref_word_product(ra, rb, cap)),
        (lambda: moyal_bracket(sa, sb, 3), _ref_moyal_sum(sa, sb, 3, cap, True)),
        (lambda: poisson_bracket(sa, sb), _ref_poisson_bracket(sa, sb, cap)),
    ]


def _read_copy(make):
    out = make()
    out.keys()  # the first read builds the view
    return out


def _same(x, y):
    """Equal terms by repr, in order (signed zeros and insertion order count)."""
    same_kind = type(x) is type(y) and x._cap == y._cap
    return same_kind and repr(list(x.items())) == repr(list(y.items()))


@pytest.mark.parametrize("dim,cap,seed", CASES[::3])
def test_packed_kernel_results_read_as_the_reference_loops(dim, cap, seed):
    for make, ref in _kernel_cases(dim, cap, seed):
        got = make()
        assert repr(list(got.items())) == repr(list(ref.items()))


@pytest.mark.parametrize("dim,cap,seed", CASES[::3])
def test_sizes_and_scale_agree_before_and_after_the_first_read(dim, cap, seed):
    for make, ref in _kernel_cases(dim, cap, seed):
        got = make()
        before = len(got), bool(got), got.max_abs_coeff()
        assert before == (len(ref), bool(ref), max(map(abs, ref.values()), default=0.0))
        got.items()
        assert (len(got), bool(got), got.max_abs_coeff()) == before


@pytest.mark.parametrize("dim,cap,seed", CASES[::3])
def test_linear_structure_on_kernel_results_matches_read_copies(dim, cap, seed):
    for make, _ref in _kernel_cases(dim, cap, seed):
        x, y = make(), make()
        assert _same(-x, -_read_copy(make))
        diff = x - y
        assert not diff and len(diff) == 0
        assert list(diff.items()) == []
        total = make() + make()
        assert _same(total, _read_copy(make) + _read_copy(make))


def test_a_kernel_result_plus_a_constructed_word_matches_read_copies():
    rng = random.Random(17)
    a, b = _operand(WordPoly, rng, 2, INF), _operand(WordPoly, rng, 2, INF)

    def make():
        return normal_order_product(a, b)

    some_key = next(iter(_read_copy(make).keys()))
    word = WordPoly(2, {some_key: 0.25, ((1, 0), (0, 2), 1, 0, 0): -1.5})
    for got, want in (
        (make() + word, _read_copy(make) + word),
        (word - make(), word - _read_copy(make)),
    ):
        assert _same(got, want)


def test_packed_results_with_different_caps_keep_the_smaller_cap():
    rng = random.Random(23)
    a, b = _operand(WordPoly, rng, 2, INF, max_exp=1), _operand(WordPoly, rng, 2, INF, max_exp=1)
    wide, narrow = (lambda: normal_order_product(a, b, 11)), (lambda: normal_order_product(b, a, 7))
    for got, want in (
        (wide() + narrow(), _read_copy(wide) + _read_copy(narrow)),
        (narrow() - wide(), _read_copy(narrow) - _read_copy(wide)),
    ):
        assert got._cap == 7
        assert _same(got, want)
        assert got and max(map(graded.key_grade, got.keys())) <= 7
        assert any(graded.key_grade(key) > 7 for key in wide().keys())


# -- operand rows and contraction rows ------------------------------------------------
#
# A kernel splits each operand's packed keys once and keeps the rows on it
# (graded._operand_rows).  The contraction tables are read through one row
# per exponent tuple, keyed by the partner's packed block.


def _lifted(poly, k, cap):
    """``poly`` times ``1 + hbar^k``, as a still-packed kernel result under ``cap``.

    The lift holds no letter, no Fourier mode and no tau, so both products
    multiply by it pointwise."""
    z = (0,) * poly.dim
    lift = type(poly)(poly.dim, {(z, z, 0, 0, 0): 1.0, (z, z, 0, 0, k): 1.0})
    if isinstance(poly, WordPoly):
        return normal_order_product(poly, lift, cap)
    return moyal_product(poly, lift, k + 1, cap)  # the operands' k is at most 1


def _row_kernels(wa, wb, sa, sb, cap):
    """Every kernel on the operands, at their cap and at ``cap - 2``."""
    return [
        normal_order_product(wa, wb),
        normal_order_product(wb, wa, cap - 2),
        normal_order_product(wa, wb, contracted=True),
        normal_order_product(wb, wa, cap - 2, half=True, contracted=True),
        moyal_product(sa, sb, 3),
        moyal_bracket(sa, sb, 3),
        moyal_bracket(sb, sa, 2, cap - 2),
        poisson_bracket(sa, sb),
        poisson_bracket(sb, sa, cap - 2),
    ]


def _row_references(wa, wb, sa, sb, cap):
    return [
        _ref_word_product(wa, wb, cap),
        _ref_word_product(wb, wa, cap - 2),
        _ref_word_product(wa, wb, cap, contracted=True),
        _ref_word_product(wb, wa, cap - 2, half=True, contracted=True),
        _ref_moyal_sum(sa, sb, 3, cap, False),
        _ref_moyal_sum(sa, sb, 3, cap, True),
        _ref_moyal_sum(sb, sa, 2, cap - 2, True),
        _ref_poisson_bracket(sa, sb, cap),
        _ref_poisson_bracket(sb, sa, cap - 2),
    ]


@pytest.mark.parametrize("dim,seed", [(1, 0), (2, 1), (3, 2)])
def test_rows_of_low_and_top_grade_operands_read_as_the_reference_loops(dim, seed):
    """Each kernel at low grades and at grades near the top of the 8-bit
    fields, in both orders in one process, on kernel results whose keys
    were read and on ones whose keys were not: every result equals the
    reference loop by repr, and no view of an unread operand is built.  The
    ``hbar^100`` lift puts operand grades above 200 and output grades up to
    the cap 250."""
    rng = random.Random(6000 * dim + seed)
    raw = [_operand(cls, rng, dim, INF) for cls in (WordPoly, WordPoly, FTSeries, FTSeries)]
    for k, cap in ((1, 9), (100, 250), (100, 250), (1, 9)):
        packed = [_lifted(p, k, cap) for p in raw]
        decoded = [_lifted(p, k, cap) for p in raw]
        for p in decoded:
            p.keys()
        assert (graded._bounds(packed[0])[0] > 200) == (k > 1)
        refs = _row_references(*decoded, cap)
        for operands in (decoded, packed):
            got = _row_kernels(*operands, cap)
            assert [repr(list(x.items())) for x in got] == [repr(list(r.items())) for r in refs]
        assert all(p._view is None for p in packed)
        assert any(got[0].keys()) and any(got[7].keys())


# -- the mirrors on packed keys ---------------------------------------------------------
#
# ``adjoint`` and ``conjugate_symbol`` are formed on packed keys; these are the
# tuple-key loops they replaced.


def _ref_adjoint(a):
    """The adjoint, term by term: (c hbar^k e^{imt} (a^+)^mu a^nu D_t^j)^+ =
    conj(c) hbar^k e^{-imt} (a^+)^nu a^mu (D_t - m hbar)^j."""
    out = {}
    for (mu, nu, m, j, k), c in a._terms.items():
        cc = complex(c).conjugate()
        for d in range(j, -1, -1):
            if m == 0 and d != j:
                break
            f = math.comb(j, d) * ((-m) ** (j - d))
            key = (nu, mu, -m, d, k + j - d)
            v = cc * f
            out[key] = out[key] + v if key in out else v
    return {key: c for key, c in out.items() if c}


def _ref_conjugate_symbol(s):
    return {(nu, mu, -m, j, k): complex(c).conjugate() for (mu, nu, m, j, k), c in s._terms.items()}


def _assert_mirrors_match(w, s):
    """The packed mirrors of a word and a symbol against the reference loops, by repr."""
    assert repr(list(adjoint(w).items())) == repr(list(_ref_adjoint(w).items()))
    assert repr(list(s.conjugate_symbol().items())) == repr(list(_ref_conjugate_symbol(s).items()))


@pytest.mark.parametrize("dim,cap,seed", CASES)
def test_packed_mirrors_match_the_tuple_key_loops(dim, cap, seed):
    rng = random.Random(7000 * dim + seed)
    w, s = _operand(WordPoly, rng, dim, cap), _operand(FTSeries, rng, dim, cap)
    assert any(key[2] and key[3] for key in w.keys())
    _assert_mirrors_match(w, s)
    assert adjoint(adjoint(w)).max_grade == cap and s.conjugate_symbol().max_weight == cap


def test_packed_mirrors_match_on_d_t_powers_next_to_fourier_modes_and_top_modes():
    """D_t^j e^{imt} words spread over lower j and higher k, and images of
    different terms meet; |m| = 127 fills the m field at either sign."""
    keys = [
        ((0, 0), (0, 0), 3, 2, 0), ((0, 0), (0, 0), 3, 1, 1), ((1, 0), (0, 1), -2, 3, 0),
        ((0, 1), (1, 0), 2, 2, 1), ((1, 1), (0, 0), 1, 1, 0), ((0, 0), (1, 1), -1, 0, 2),
    ]
    rng = random.Random(11)
    for extra in ([], [((0, 0), (2, 0), 127, 2, 0), ((1, 0), (0, 0), -127, 1, 1)]):
        for coeff in (_coeff, lambda rng: rng.choice((-1.0, 0.5, 2.0))):  # real: zero parts
            terms = {key: coeff(rng) for key in keys + extra}
            w, s = WordPoly(2, terms), FTSeries(2, terms)
            _assert_mirrors_match(w, s)
    meet = WordPoly(1, {((0,), (0,), 1, 1, 0): 1.0, ((0,), (0,), 1, 0, 1): 1.0})
    assert list(adjoint(meet).items()) == [(((0,), (0,), -1, 1, 0), 1.0)]


@pytest.mark.parametrize("dim,cap,seed", CASES[::3])
def test_packed_mirrors_of_packed_kernel_results_match_the_tuple_key_loops(dim, cap, seed):
    rng = random.Random(8000 * dim + seed)
    wa, wb = _operand(WordPoly, rng, dim, cap), _operand(WordPoly, rng, dim, cap)
    sa, sb = _operand(FTSeries, rng, dim, cap), _operand(FTSeries, rng, dim, cap)
    for make_w, make_s in (
        (lambda: normal_order_product(wa, wb), lambda: moyal_bracket(sa, sb, 3)),
        (lambda: commutator_over_ihbar(wa, wb, half=True), lambda: poisson_bracket(sa, sb)),
    ):
        w, s = make_w(), make_s()
        w_adj, s_conj = adjoint(w), s.conjugate_symbol()
        assert w._view is None and s._view is None
        assert repr(list(w_adj.items())) == repr(list(_ref_adjoint(make_w()).items()))
        assert repr(list(s_conj.items())) == repr(list(_ref_conjugate_symbol(make_s()).items()))
