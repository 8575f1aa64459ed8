"""The per-mode substitutions against their straight-loop reference versions.

``diagonal_to_normal_form``, ``normal_form_to_word`` and
``weyl_of_functional_calculus`` are one substitution per mode
(``normalform._substituted``) with a cached exact one-mode table each.  The
reference functions below are the loops those maps were written as before:
a float expansion of ``prod (p - (l + 1/2) hbar)`` per diagonal word, one
word product per power of ``P = a^+ a + hbar/2``, and a ``Fraction`` loop
over the ``w_k``.  The diagonal and functional-calculus maps must agree with
them byte for byte (``to_csv()``, and the stored order of the entries); the
word map sums its terms in another order, so it agrees to 1e-14 of the
table's scale, and exactly on dyadic coefficients.
"""

import math
import random
from fractions import Fraction

from orbitbnf.bridge import weyl_fluctuation_poly, weyl_of_functional_calculus
from orbitbnf.graded import is_resonant_key
from orbitbnf.normalform import NormalForm
from orbitbnf.words import (
    WordPoly,
    _action_in_ladders,
    _ladder_in_actions,
    diagonal_to_normal_form,
    normal_form_to_word,
    normal_order_product,
)

CASES = 200
DYADIC = tuple(Fraction(n, 8) for n in range(-32, 33) if n)


def _unit(dim, i):
    return tuple(1 if x == i else 0 for x in range(dim))


def _ref_diagonal_to_normal_form(a, route=None):
    """Expand prod_i prod_{l<kappa_i} (p_i - (l + 1/2) hbar) in floats, per key."""
    coeffs = {}
    for key, c in a.items():
        if not is_resonant_key(key):
            continue
        mu, _nu, _m, j, k = key
        poly = {((0,) * a.dim, 0): 1.0}
        for i, kap in enumerate(mu):
            for l in range(kap):
                nxt = {}
                for (r, dk), v in poly.items():
                    up = (tuple(x + y for x, y in zip(r, _unit(a.dim, i))), dk)
                    nxt[up] = nxt.get(up, 0.0) + v
                    nxt[r, dk + 1] = nxt.get((r, dk + 1), 0.0) - v * (l + 0.5)
                poly = nxt
        for (r, dk), v in poly.items():
            coeffs[r, j, k + dk] = coeffs.get((r, j, k + dk), 0.0) + c * v
    return NormalForm(a.dim, coeffs, route=route)


def _ref_weyl_of_functional_calculus(h, hbar_order):
    """p_i^{r_i} -> w_{r_i}(p_i, hbar), one Fraction product per kept term."""
    out = {}
    for (r, s, k), c in h.items():
        parts = [((), 0, Fraction(1))]
        for ri in r:
            nxt = []
            for rv, e, f in parts:
                for (rr, ee), ff in weyl_fluctuation_poly(ri):
                    if k + e + ee <= hbar_order:
                        nxt.append((rv + (rr,), e + ee, f * ff))
            parts = nxt
        for rv, e, f in parts:
            out[rv, s, k + e] = out.get((rv, s, k + e), 0.0) + c * float(f)
    return NormalForm(h.dim, out, route="weyl")


def _ref_normal_form_to_word(nf, max_grade=math.inf):
    """One normal-ordered product by P_i = a_i^+ a_i + hbar/2 per power."""
    dim = nf.dim
    zero = (0,) * dim
    total = WordPoly.zero(dim, max_grade)
    for (r, s, k), c in nf.items():
        w = WordPoly(dim, {(zero, zero, 0, s, k): c}, max_grade)
        for i, ri in enumerate(r):
            e_i = _unit(dim, i)
            p_word = WordPoly(
                dim, {(e_i, e_i, 0, 0, 0): 1.0, (zero, zero, 0, 0, 1): 0.5}, max_grade
            )
            for _ in range(ri):
                w = normal_order_product(w, p_word)
        total = total + w
    return total


def _coefficient(rng, dyadic):
    return float(rng.choice(DYADIC)) if dyadic else rng.uniform(-2.0, 2.0)


def _random_diagonal_word(rng, dim, dyadic=False):
    """A few resonant words (kappa <= 4, j <= 2, k <= 3) and one that is not."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        kappa = tuple(rng.randint(0, 4) for _ in range(dim))
        terms[kappa, kappa, 0, rng.randint(0, 2), rng.randint(0, 3)] = _coefficient(rng, dyadic)
    terms[_unit(dim, 0), (0,) * dim, 1, 0, 0] = 0.3
    return WordPoly(dim, terms)


def _random_table(rng, dim, dyadic=False):
    """A few entries p^r tau^s hbar^k with r_i <= 4, s <= 2, k <= 3."""
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        r = tuple(rng.randint(0, 4) for _ in range(dim))
        coeffs[r, rng.randint(0, 2), rng.randint(0, 3)] = _coefficient(rng, dyadic)
    return NormalForm(dim, coeffs)


def test_diagonal_map_matches_its_reference_byte_for_byte():
    rng = random.Random(41)
    for case in range(CASES):
        word = _random_diagonal_word(rng, 1 + case % 3)
        got = diagonal_to_normal_form(word, "quantum")
        ref = _ref_diagonal_to_normal_form(word, "quantum")
        assert got.to_csv() == ref.to_csv()
        assert list(got.items()) == list(ref.items())


def test_functional_calculus_matches_its_reference_byte_for_byte():
    rng = random.Random(42)
    for case in range(CASES):
        table = _random_table(rng, 1 + case % 3)
        hbar_order = (0, 2, 4, 7)[case % 4]
        got = weyl_of_functional_calculus(table, hbar_order)
        ref = _ref_weyl_of_functional_calculus(table, hbar_order)
        assert got.to_csv() == ref.to_csv()
        assert list(got.items()) == list(ref.items())


def test_word_map_matches_its_product_reference():
    """To 1e-14 of the table's scale, and exactly on dyadic coefficients."""
    rng = random.Random(43)
    for case in range(CASES):
        dyadic = case % 2 == 0
        table = _random_table(rng, 1 + case % 3, dyadic)
        cap = (math.inf, 6, 10)[case % 3]
        got, ref = normal_form_to_word(table, cap), _ref_normal_form_to_word(table, cap)
        assert got.max_grade == ref.max_grade
        assert got.keys() == ref.keys()
        if dyadic:
            assert dict(got.items()) == dict(ref.items())
        else:
            scale = ref.max_abs_coeff()
            assert all(abs(got.coeff(key) - c) <= 1e-14 * scale for key, c in ref.items())


def test_diagonal_map_inverts_the_word_map_exactly_on_dyadic_tables():
    rng = random.Random(44)
    for case in range(CASES):
        table = _random_table(rng, 1 + case % 3, dyadic=True)
        back = diagonal_to_normal_form(normal_form_to_word(table))
        assert dict(back.items()) == dict(table.items())


def _composed(outer, inner, power):
    """Substitute ``inner`` into the one-mode table ``outer(power)``, in Fraction."""
    out = {}
    for (n, e), f in outer(power):
        for (n2, e2), f2 in inner(n):
            out[n2, e + e2] = out.get((n2, e + e2), 0) + f * f2
    return {key: f for key, f in out.items() if f}


def test_the_two_word_tables_are_exact_inverses():
    """P^r in the (a^+)^kappa a^kappa, each of those in p: p^r; and back."""
    for power in range(13):
        assert _composed(_action_in_ladders, _ladder_in_actions, power) == {(power, 0): 1}
        assert _composed(_ladder_in_actions, _action_in_ladders, power) == {(power, 0): 1}
