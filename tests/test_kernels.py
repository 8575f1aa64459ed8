"""The product kernels against their straight-loop reference versions.

``normal_order_product`` and the Moyal sum read their structure constants
from the shared contraction table ``graded._contractions``.  The reference
functions below recompute every factor per term pair, in the same loop order
and with the same arithmetic, so the library must agree with them exactly
(``==`` of the stored terms, no tolerance).
"""

import math
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from orbitbnf.series import FTSeries, moyal_bracket, moyal_product
from orbitbnf.words import WordPoly, normal_order_product

INF = math.inf


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _grade(key):
    mu, nu, _m, j, k = key
    return sum(mu) + sum(nu) + 2 * j + 2 * k


def _ref_word_product(a, b, cap):
    """A*B normal-ordered, every contraction factor recomputed per term pair."""
    out = {}
    for (mu1, nu1, m1, j1, k1), c1 in a._terms.items():
        for (mu2, nu2, m2, j2, k2), c2 in b._terms.items():
            if _grade((mu1, nu1, m1, j1, k1)) + _grade((mu2, nu2, m2, j2, k2)) > cap:
                continue
            base = c1 * c2
            for d in range(j1, -1, -1):
                if m2 == 0 and d != j1:
                    break
                f_d = math.comb(j1, d) * (m2 ** (j1 - d))
                if not f_d:
                    continue
                for l in iproduct(*[range(min(n, m) + 1) for n, m in zip(nu1, mu2)]):
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
def test_moyal_sum_matches_reference_loop(dim, cap, seed):
    rng = random.Random(2000 * dim + seed)
    a, b = _operand(FTSeries, rng, dim, cap), _operand(FTSeries, rng, dim, cap)
    for hbar_order in range(5):
        assert moyal_product(a, b, hbar_order)._terms == _ref_moyal_sum(
            a, b, hbar_order, cap, False
        )
        assert moyal_bracket(a, b, hbar_order)._terms == _ref_moyal_sum(
            a, b, hbar_order, cap, True
        )
    assert moyal_bracket(b, a, 3, 8)._terms == _ref_moyal_sum(b, a, 3, 8, True)
