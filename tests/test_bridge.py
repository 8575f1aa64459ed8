"""Symbol dictionaries: Weyl/Wick conversion and the two normal-form routes."""

import math
import random

import pytest

from orbitbnf.acceptance import _benchmark_hamiltonian
from orbitbnf.bridge import (
    relate_normal_forms,
    weyl_from_wick,
    weyl_of_functional_calculus,
    weyl_symbol_of_word,
    wick_from_weyl,
)
from orbitbnf.classical import birkhoff_semiclassical
from orbitbnf.normalform import NormalForm
from orbitbnf.quantum import birkhoff_quantum, h0_word
from orbitbnf.series import FTSeries, moyal_product, nonresonance_margin
from orbitbnf.words import normal_order_product, WordPoly

SQRT2M1 = math.sqrt(2.0) - 1.0


def test_functional_calculus_pins():
    """p maps to p; p^2 picks up the -hbar^2/4 correction."""
    out = weyl_of_functional_calculus(NormalForm(1, {((1,), 0, 0): 1.0}), 4)
    assert out.to_records() == [{"r": [1], "s": 0, "k": 0, "c": 1.0}]
    out2 = weyl_of_functional_calculus(NormalForm(1, {((2,), 0, 0): 1.0}), 4)
    got = {(tuple(r["r"]), r["s"], r["k"]): r["c"] for r in out2.to_records()}
    assert got == {((2,), 0, 0): 1.0, ((0,), 0, 2): -0.25}


def test_functional_calculus_matches_star_powers():
    """The image of p^r tau^s equals the iterated star product of the factors.

    The oracle multiplies the action variables one Moyal factor at a time, so
    it never touches the functional-calculus code path."""
    rng = random.Random(3173)
    for dim in (1, 2):
        p_series = [
            FTSeries.monomial(dim, tuple(1 if q == i else 0 for q in range(dim)),
                              tuple(1 if q == i else 0 for q in range(dim)),
                              coeff=0.5)
            for i in range(dim)
        ]
        for _ in range(8):
            entries = {}
            for _ in range(3):
                r = tuple(rng.randint(0, 3 - dim) for _ in range(dim))
                s = rng.randint(0, 1)
                entries[(r, s, 0)] = rng.uniform(-1.0, 1.0)
            nf = NormalForm(dim, entries)
            image = weyl_of_functional_calculus(nf, 4)
            zeros = (0,) * dim
            oracle = FTSeries.zero(dim)
            for (r, s, _k), c in entries.items():
                acc = FTSeries.monomial(dim, zeros, zeros, j=s, coeff=c)
                for i in range(dim):
                    for _ in range(r[i]):
                        acc = moyal_product(acc, p_series[i], 4)
                oracle = oracle + acc
            assert (image.as_series() - oracle).max_abs_coeff() < 1e-12
    # One mode, p^r for r = 1..8 at hbar^8: every w_r against its star power.
    p = FTSeries.monomial(1, (1,), (1,), coeff=0.5)
    acc = FTSeries.constant(1, 1.0)
    for r in range(1, 9):
        acc = moyal_product(acc, p, 8)
        image = weyl_of_functional_calculus(NormalForm(1, {((r,), 0, 0): 1.0}), 8)
        assert (image.as_series() - acc).max_abs_coeff() < 1e-12


def test_functional_calculus_images_have_even_hbar_powers():
    rng = random.Random(911)
    for _ in range(5):
        r = (rng.randint(0, 4),)
        nf = NormalForm(1, {(r, rng.randint(0, 2), 0): 1.0})
        image = weyl_of_functional_calculus(nf, 6)
        for rec in image.to_records():
            assert rec["k"] % 2 == 0


def test_wick_weyl_golden_shifts():
    """Wick symbol of op(p) is p + hbar/2; Weyl symbol of a+ a is p - hbar/2."""
    p = FTSeries.monomial(1, (1,), (1,), coeff=0.5)
    wick = wick_from_weyl(p, 4)
    assert abs(wick.coeff(((1,), (1,), 0, 0, 0)) - 0.5) < 1e-15
    assert abs(wick.coeff(((0,), (0,), 0, 0, 1)) - 0.5) < 1e-15
    aa = WordPoly.word(1, mu=(1,), nu=(1,), coeff=1.0)
    sym = weyl_symbol_of_word(aa, 4)
    assert abs(sym.coeff(((1,), (1,), 0, 0, 0)) - 0.5) < 1e-15
    assert abs(sym.coeff(((0,), (0,), 0, 0, 1)) + 0.5) < 1e-15


def test_wick_weyl_on_tables_shifts_actions_and_truncates():
    """On a table the flow is p -> p + hbar/2 and p^2 -> p^2 + 2 hbar p + hbar^2/2."""
    p = NormalForm(1, {((1,), 0, 0): 1.0}, route="weyl")
    wick = wick_from_weyl(p, 4)
    assert wick.route == "weyl"
    assert dict(wick.items()) == {((1,), 0, 0): 1.0, ((0,), 0, 1): 0.5}
    p2 = NormalForm(2, {((0, 2), 1, 0): 1.0})
    assert dict(wick_from_weyl(p2, 4).items()) == {
        ((0, 2), 1, 0): 1.0, ((0, 1), 1, 1): 2.0, ((0, 0), 1, 2): 0.5,
    }
    mixed = NormalForm(1, {((1,), 0, 3): 1.0, ((2,), 0, 0): 1.0, ((1,), 1, 0): -0.5})
    for order in (0, 1, 2, 5):
        there = wick_from_weyl(mixed, order)
        assert all(k <= order for (_r, _s, k), _c in there.items())
        back = weyl_from_wick(there, order)
        assert back.difference(mixed.hbar_truncated(order)) < 1e-15
    no_modes = NormalForm(0, {((), 0, 3): 1.0, ((), 1, 0): 2.0})
    assert dict(wick_from_weyl(no_modes, 2).items()) == {((), 1, 0): 2.0}


def test_wick_weyl_round_trips_are_exact():
    rng = random.Random(26021)
    for dim in (1, 2):
        for _ in range(6):
            g = FTSeries.zero(dim)
            for _ in range(4):
                mu = tuple(rng.randint(0, 2) for _ in range(dim))
                nu = tuple(rng.randint(0, 2) for _ in range(dim))
                g = g + FTSeries.monomial(
                    dim, mu, nu, m=rng.randint(-1, 1), j=rng.randint(0, 1),
                    coeff=rng.choice((-1.5, -1.0, 0.5, 1.0)),
                )
            there = weyl_from_wick(wick_from_weyl(g, 6), 6)
            back = wick_from_weyl(weyl_from_wick(g, 6), 6)
            assert (there - g).max_abs_coeff() < 1e-13
            assert (back - g).max_abs_coeff() < 1e-13


def test_weyl_symbol_of_cubic_word_golden():
    """(a + a+)^3 has Weyl symbol 2^{-3/2} (z + zbar)^3 with no hbar terms."""
    s = WordPoly.annihilation(1, 0) + WordPoly.creation(1, 0)
    c3 = normal_order_product(normal_order_product(s, s, 8), s, 8)
    sym = weyl_symbol_of_word(c3, 2, 8)
    c = 2.0 ** (-1.5)
    expected = {
        ((3,), (0,)): c, ((0,), (3,)): c,
        ((2,), (1,)): 3.0 * c, ((1,), (2,)): 3.0 * c,
    }
    got = {}
    for key, val in sym.items():
        mu, nu, m, j, k = key
        assert (m, j, k) == (0, 0, 0)
        assert abs(val.imag) < 1e-15
        got[(mu, nu)] = val.real
    assert set(got) == set(expected)
    for key in expected:
        assert abs(got[key] - expected[key]) < 1e-14


def test_route_equivalence_on_cubic_benchmark():
    """Operator sweep + symbol dictionary = semiclassical sweep of the symbol."""
    rot = nonresonance_margin((SQRT2M1,), 8)
    s = WordPoly.annihilation(1, 0) + WordPoly.creation(1, 0)
    H = h0_word(rot, 1.0, 8) + normal_order_product(
        normal_order_product(s, s, 8), s, 8) * 1e-2
    h_quantum, _, _ = birkhoff_quantum(H, rot, 4, 8)
    Hs = weyl_symbol_of_word(H, 2, 8)
    h_semi, _, _ = birkhoff_semiclassical(Hs, rot, 4, 2, 8)
    related = relate_normal_forms(h_quantum, 2)
    keys = set()
    for nf in (related, h_semi):
        for rec in nf.to_records():
            keys.add((tuple(rec["r"]), rec["s"], rec["k"]))
    for r, s_, k in keys:
        if 2 * (sum(r) + s_ + k) > 4 or k > 2:
            continue
        assert abs(related.coeff(r, s_, k) - h_semi.coeff(r, s_, k)) < 1e-12


def test_route_equivalence_at_full_order_on_the_check_4_hamiltonian():
    """Whole tables at weight 6 and hbar^3, with no weight or hbar window.

    The operator sweep mapped through the functional calculus must give the
    semiclassical sweep of the exact Weyl symbol, and the semiclassical
    table has no odd hbar power.
    """
    H, rot = _benchmark_hamiltonian(8, 0.1, 1.0)
    h_q, _, _ = birkhoff_quantum(H, rot, 6, 8)
    h_s, _, _ = birkhoff_semiclassical(weyl_symbol_of_word(H, 3, 8), rot, 6, 3, 8)
    assert relate_normal_forms(h_q, 3).difference(h_s) < 1e-10
    assert [e for e, _c in h_s.items() if e[2] % 2] == []


def _coupled_cubic(dim, cos_t=False, c=(1.0, 0.7, 0.5), eps=0.05):
    """h0 + eps (sum_i c_i (a_i + a_i^+))^3; with ``cos_t`` the cube is added
    once more times cos t = (e^{it} + e^{-it}) / 2."""
    rot = nonresonance_margin((SQRT2M1, math.sqrt(3.0) - 1.0, math.sqrt(5.0) - 2.0)[:dim], 8)
    x = WordPoly.zero(dim, 8)
    for i, c_i in enumerate(c[:dim]):
        x = x + (WordPoly.annihilation(dim, i, 8) + WordPoly.creation(dim, i, 8)).scaled(c_i)
    cube = normal_order_product(normal_order_product(x, x, 8), x, 8).scaled(eps)
    H = h0_word(rot, 1.0, 8) + cube
    if cos_t:
        cos = WordPoly.word(dim, m=1, coeff=0.5) + WordPoly.word(dim, m=-1, coeff=0.5)
        H = H + normal_order_product(cos, cube, 8)
    return H, rot


@pytest.mark.parametrize(
    "dim, cos_t, order",
    [(1, True, 8), (2, False, 8), (3, False, 6)],
    ids=["dim1-cos_t", "dim2", "dim3"],
)
def test_route_equivalence_at_full_order_on_coupled_cubics(dim, cos_t, order):
    """Whole tables at weight ``order`` and hbar^{order/2}: the operator sweep
    mapped through the functional calculus gives the semiclassical sweep of
    the Weyl symbol."""
    H, rot = _coupled_cubic(dim, cos_t)
    hbar_order = order // 2
    h_q, _, _ = birkhoff_quantum(H, rot, order, order)
    symbol = weyl_symbol_of_word(H, hbar_order, order)
    h_s, _, _ = birkhoff_semiclassical(symbol, rot, order, hbar_order, order)
    assert relate_normal_forms(h_q, hbar_order).difference(h_s) < 1e-10


@pytest.mark.parametrize(
    "dim, cos_t, order",
    [(1, False, 8), (2, False, 8), (3, False, 6), (1, True, 8)],
    ids=["dim1", "dim2", "dim3", "dim1-cos_t"],
)
def test_dyadic_words_give_even_symbols_and_even_semiclassical_tables(dim, cos_t, order):
    """On dyadic coefficients the parity law holds exactly: the coupled cubic
    h0 + (1/16)(sum_i c_i (a_i + a_i^+))^3, c = (1, 3/4, 1/2), has a Weyl
    symbol without odd hbar powers, and so has its semiclassical normal form
    at hbar^4 (the Moyal bracket over i hbar is even in hbar)."""
    H, rot = _coupled_cubic(dim, cos_t, c=(1.0, 0.75, 0.5), eps=1.0 / 16.0)
    symbol = weyl_symbol_of_word(H, 4, order)
    assert [key for key in symbol.keys() if key[4] % 2] == []
    h_s, _, _ = birkhoff_semiclassical(symbol, rot, order, 4, order)
    assert [e for e, _c in h_s.items() if e[2] % 2] == []


def _moyal_chain_weyl_symbol(w, hbar_order, max_weight=math.inf):
    """Reference Weyl map: each word term c hbar^k e^{imt} (a^+)^mu a^nu D_t^j
    as the Moyal product, in operator order, of the elementary symbols
    e^{imt}, (zbar/sqrt2)^mu, (z/sqrt2)^nu and tau^j, summed term by term."""
    dim = w.dim
    zero = (0,) * dim
    total = FTSeries.zero(dim, max_weight)
    for (mu, nu, m, j, k), c in w.items():
        if k > hbar_order:
            continue
        factors = []
        if m:
            factors.append(FTSeries.monomial(dim, zero, zero, m=m))
        if any(mu):
            factors.append(FTSeries.monomial(dim, zero, mu))
        if any(nu):
            factors.append(FTSeries.monomial(dim, nu, zero))
        if j:
            factors.append(FTSeries.monomial(dim, zero, zero, j=j))
        term = FTSeries.constant(dim, 1.0)
        for f in factors:
            term = moyal_product(term, f, hbar_order - k, max_weight)
        shifted = {
            (tmu, tnu, tm, tj, tk + k): tc
            for (tmu, tnu, tm, tj, tk), tc in term.truncated(max_weight - 2 * k).items()
        }
        scale = c * 2.0 ** (-(sum(mu) + sum(nu)) / 2.0)
        total = total + FTSeries(dim, shifted, max_weight).scaled(scale)
    return total


def _random_word(rng, dim):
    """1-4 complex terms, exponents <= 3 per mode, |m| <= 3, j <= 3, k <= 2."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (
            tuple(rng.randint(0, 3) for _ in range(dim)),
            tuple(rng.randint(0, 3) for _ in range(dim)),
            rng.randint(-3, 3),
            rng.randint(0, 3),
            rng.randint(0, 2),
        )
        terms[key] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return WordPoly(dim, terms)


@pytest.mark.parametrize("max_weight", [math.inf, 10, 14], ids=["uncapped", "cap10", "cap14"])
def test_weyl_symbol_of_word_matches_the_moyal_chain(max_weight):
    """The closed-form Weyl map equals the Moyal-chain reference on random
    complex words, to 1e-15 of the reference's largest coefficient."""
    rng = random.Random(1409)
    for _ in range(100):
        w = _random_word(rng, rng.randint(1, 3))
        hbar_order = rng.randint(0, 5)
        got = weyl_symbol_of_word(w, hbar_order, max_weight)
        ref = _moyal_chain_weyl_symbol(w, hbar_order, max_weight)
        assert got.max_weight == ref.max_weight
        assert (got - ref).max_abs_coeff() <= 1e-15 * ref.max_abs_coeff()


def test_hbar_orders_truncate_at_the_given_order():
    """Order 2 keeps hbar^2 and drops hbar^4 (bad orders: tests/test_inputs.py).
    Unread, a NaN order passed every ``k > order`` test and kept every hbar
    power, and 1.5 acted as 1."""
    a = FTSeries(1, {((3,), (1,), 0, 0, 0): 1.0, ((1,), (3,), 0, 0, 0): 1.0})
    b = FTSeries(1, {((2,), (3,), 0, 0, 0): 1.0, ((3,), (2,), 0, 0, 0): 1.0})
    nf = NormalForm(1, {((4,), 0, 0): 1.0})
    assert max(key[4] for key in moyal_product(a, b, 2).keys()) == 2
    assert ((0,), 0, 4) not in dict(weyl_of_functional_calculus(nf, 2).items())
