"""Dictionaries between operator orderings and functional calculus.

Three conversions live here:

* the Wick <-> Weyl heat flow  sigma^{wi} = e^{hbar(d^2_x + d^2_xi)/4} sigma^{we}
  (equivalently exp(+hbar d_z d_zbar) per transverse mode), finite on
  polynomial truncations and inverted by the sign-reversed series;

* the Weyl symbol of the functional calculus h(P_1, ..., P_n, D_t):
  for one mode, p^k quantizes to the polynomial w_k(p, hbar), the Weyl
  symbol of P^k.  The action p is quadratic, so its Moyal product with a
  radial symbol stops at second order, p # f = p f - (hbar^2/4)(p f'' + f'),
  and w_{k+1} = p # w_k is an exact rational two-term recurrence from
  w_0 = 1 (w_1 = p, w_2 = p^2 - hbar^2/4); the w_k are real with even hbar
  powers only;

* the Weyl symbol of a normal-ordered word: the heat flow
  exp(-hbar sum d_z d_zbar) of its Wick symbol (a_i -> z_i / sqrt 2,
  a_i^+ -> zbar_i / sqrt 2), with the loop variable shifted as
  e^{imt} D_t^j -> e^{imt} (tau - m hbar/2)^j.

``relate_normal_forms`` applies the functional-calculus conversion to a
quantum normal form h and returns the predicted semiclassical table H';
the difference H' - h is supported on hbar powers >= 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .graded import _contraction_terms, _read_index, _sub_idx, key_grade
from .normalform import NormalForm, _substituted
from .series import FTSeries


# -- one-mode fluctuation polynomials w_k(p, hbar) ------------------------------


@lru_cache(maxsize=None)
def weyl_fluctuation_poly(k: int):
    """w_k as a tuple of ((p_power, hbar_power), Fraction) with hbar_power even.

    w_k is the exact Weyl symbol of P^k for one transverse mode P with
    symbol p.  Since p is quadratic in (x, xi), the Moyal product with it
    stops at second order; on a radial symbol f(p) it reads
    p # f = p f - (hbar^2/4)(p f'' + f'), so w_0 = 1 and
    w_{k+1} = p w_k - (hbar^2/4)(p w_k'' + w_k'), which sends each term
    c p^r hbar^e to c p^{r+1} hbar^e - (r^2 c/4) p^{r-1} hbar^{e+2}.
    ValueError unless k is an integer >= 0 (:func:`~orbitbnf.graded._read_index`).
    """
    terms = {(0, 0): Fraction(1)}
    for _ in range(_read_index(k, "k")):
        nxt = {}
        for (r, e), c in terms.items():
            nxt[(r + 1, e)] = nxt.get((r + 1, e), 0) + c
            if r:
                nxt[(r - 1, e + 2)] = nxt.get((r - 1, e + 2), 0) - Fraction(r * r, 4) * c
        terms = nxt
    return tuple(sorted((key, c) for key, c in terms.items() if c))


# -- functional calculus on normal forms -----------------------------------------


def weyl_of_functional_calculus(h: NormalForm, hbar_order: int) -> NormalForm:
    """Exact Weyl symbol of h(P_1..P_n, D_t, hbar) through hbar^hbar_order.

    Each p_i^{r_i} factor becomes w_{r_i}(p_i, hbar) (the per-mode
    substitution :func:`~orbitbnf.normalform._substituted` with the table
    :func:`weyl_fluctuation_poly`); tau powers pass through unchanged
    (quantizing a function of D_t alone is exact).  The output
    agrees with h at hbar^0 and differs only in even hbar powers per entry.
    """
    hbar_order = _read_index(hbar_order, "hbar_order")
    terms = _substituted(h.items(), weyl_fluctuation_poly, hbar_order)
    return NormalForm(h.dim, terms, route="weyl")


def relate_normal_forms(h_quantum: NormalForm, hbar_order: int) -> NormalForm:
    """Predicted semiclassical table H' from the quantum normal form h.

    H' - h is supported on hbar powers >= 2; coefficientwise H' must match
    the output of the semiclassical sweep through the shared truncation.
    """
    return weyl_of_functional_calculus(h_quantum, hbar_order)


# -- Wick <-> Weyl heat flow ------------------------------------------------------


def _heat_flow_terms(terms, hbar_order: int, step) -> dict:
    """exp(step * hbar * sum_i d_{z_i} d_{zbar_i}) on ``(key, c)`` pairs, as a dict.

    z^mu zbar^nu goes to the sum over 0 <= x <= min(mu, nu) of
    step^|x| x! C(mu, x) C(nu, x) hbar^|x| z^{mu-x} zbar^{nu-x}, with the
    integers from :func:`~orbitbnf.graded._contraction_terms`; terms above
    hbar^hbar_order are dropped; ValueError unless ``hbar_order`` is an
    integer >= 0.
    """
    hbar_order = _read_index(hbar_order, "hbar_order")
    out = {}
    for (mu, nu, m, j, k), c in terms:
        for x, s, f in _contraction_terms(mu, nu):
            if k + s > hbar_order:
                continue
            key = (_sub_idx(mu, x), _sub_idx(nu, x), m, j, k + s)
            val = c * f * step**s
            out[key] = out.get(key, 0.0) + val
    return out


def _heat_flow(sym, hbar_order: int, sign: int):
    if isinstance(sym, FTSeries):
        return FTSeries(sym.dim, _heat_flow_terms(sym.items(), hbar_order, sign), sym.max_weight)
    if isinstance(sym, NormalForm):
        flowed = _heat_flow(sym.as_series(), hbar_order, sign)
        return NormalForm.from_resonant_series(flowed, route=sym.route)
    raise TypeError("expected FTSeries or NormalForm")


def wick_from_weyl(sym, hbar_order: int):
    """Wick (normal-ordered) symbol from the Weyl symbol.

    Accepts an FTSeries or a NormalForm and returns the same kind through
    hbar^hbar_order: exp(+hbar sum d_z d_zbar), on a table via its
    ``as_series`` and ``from_resonant_series`` (route kept).  Example: p -> p + hbar/2.
    """
    return _heat_flow(sym, hbar_order, +1)


def weyl_from_wick(sym, hbar_order: int):
    """Inverse of wick_from_weyl (the sign-reversed heat flow)."""
    return _heat_flow(sym, hbar_order, -1)


# -- Weyl symbols of words --------------------------------------------------------


def weyl_symbol_of_word(w, hbar_order: int, max_weight=math.inf) -> FTSeries:
    """Weyl symbol of a normal-ordered word polynomial, in one pass over its terms.

    A term c hbar^k e^{imt} (a^+)^mu a^nu D_t^j has the Wick symbol
    c hbar^k e^{imt} (zbar/sqrt2)^mu (z/sqrt2)^nu tau^j.  Its Weyl symbol is
    the heat flow exp(-hbar sum d_z d_zbar) of the transverse part times
    e^{imt} # tau^j = e^{imt} (tau - m hbar/2)^j, so the term adds
    c (-1/2)^|x| x! C(mu, x) C(nu, x) C(j, i) (-m/2)^i into the key
    (mu', nu', ...) = (nu - x, mu - x, m, j - i, k + |x| + i), and
    Op(symbol) = word exactly through the hbar truncation.  The factor
    2^{-(|mu| + |nu|)/2} of the Wick symbol is 2^{-|x|} (the 1/2 of the flow
    step) times 2^{-(|mu'| + |nu'|)/2}; that irrational part is applied once
    per output key, after the sum, so a key whose contributions cancel
    exactly on dyadic coefficients is an exact zero and is not stored.  The
    grade is kept: terms above ``max_weight`` (an integer >= 0 or
    ``math.inf``) are skipped.
    """
    from .words import WordPoly  # local import to keep the module DAG acyclic

    if not isinstance(w, WordPoly):
        raise TypeError("expected WordPoly")
    max_weight = _read_index(max_weight, "max_weight", infinite=True)

    def shifted_terms():  # the Wick symbol without 2^{-(|mu| + |nu|)/2}, t shifted
        for key, c in w.items():
            mu, nu, m, j, k = key
            if key_grade(key) > max_weight:
                continue
            for i in range(j + 1 if m else 1):
                if k + i > hbar_order:
                    break
                yield (nu, mu, m, j - i, k + i), c * (math.comb(j, i) * (-m) ** i / 2**i)

    flowed = _heat_flow_terms(shifted_terms(), hbar_order, -0.5)
    return FTSeries(
        w.dim,
        {key: c * 2.0 ** (-(sum(key[0]) + sum(key[1])) / 2.0) for key, c in flowed.items()},
        max_weight,
    )
