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

* the Weyl symbol of a normal-ordered word, assembled from Moyal products
  of the elementary symbols (a_i -> z_i / sqrt 2, D_t -> tau, e^{imt} itself).

``relate_normal_forms`` applies the functional-calculus conversion to a
quantum normal form h and returns the predicted semiclassical table H';
the difference H' - h is supported on hbar powers >= 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .normalform import NormalForm
from .series import FTSeries, moyal_product


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
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    terms = {(0, 0): Fraction(1)}
    for _ in range(k):
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

    Each p_i^{r_i} factor becomes w_{r_i}(p_i, hbar); tau powers pass through
    unchanged (quantizing a function of D_t alone is exact).  The output
    agrees with h at hbar^0 and differs only in even hbar powers per entry.
    """
    if hbar_order < 0:
        raise ValueError("hbar_order must be >= 0")
    out = {}
    for (r, s, k), c in h.items():
        parts = [(tuple(), 0, Fraction(1))]
        for ri in r:
            w = weyl_fluctuation_poly(ri)
            nxt = []
            for (rv, e, f) in parts:
                for (rr, ee), ff in w:
                    if k + e + ee > hbar_order:
                        continue
                    nxt.append((rv + (rr,), e + ee, f * ff))
            parts = nxt
        for (rv, e, f) in parts:
            key = (rv, s, k + e)
            val = c * float(f)
            out[key] = out.get(key, 0.0) + val
    return NormalForm(h.dim, out, route="weyl")


def relate_normal_forms(h_quantum: NormalForm, hbar_order: int) -> NormalForm:
    """Predicted semiclassical table H' from the quantum normal form h.

    H' - h is supported on hbar powers >= 2; coefficientwise H' must match
    the output of the semiclassical sweep through the shared truncation.
    """
    return weyl_of_functional_calculus(h_quantum, hbar_order)


def diagonal_values_check(h: NormalForm, hbar: float, kmax: int) -> list:
    """[h((k+1/2) hbar) for k = 0..kmax] for one transverse mode (tau = 0).

    These are exactly the diagonal matrix elements of h(P) on the Hermite
    basis, which is what makes the functional-calculus route checkable
    against the matrix oracle.
    """
    if h.dim != 1:
        raise ValueError("diagonal_values_check is defined for one transverse mode")
    if hbar <= 0:
        raise ValueError("hbar must be > 0")
    return [h.evaluate(((k + 0.5) * hbar,), 0.0, hbar) for k in range(kmax + 1)]


# -- Wick <-> Weyl heat flow ------------------------------------------------------


def _heat_flow_series(A: FTSeries, hbar_order: int, sign: int) -> FTSeries:
    """exp(sign * hbar * sum_i d_{z_i} d_{zbar_i}) on a series truncation."""
    out = {}
    for (mu, nu, m, j, k), c in A.items():
        ranges = [range(min(a, b) + 1) for a, b in zip(mu, nu)]
        stack = [(tuple(), 0, 1)]
        for i, rng in enumerate(ranges):
            nxt = []
            for (x, tot, f) in stack:
                for xi in rng:
                    if tot + xi + k > hbar_order:
                        break
                    fi = f
                    for step in range(xi):
                        fi *= (mu[i] - step) * (nu[i] - step)
                    fi = Fraction(fi, math.factorial(xi))
                    nxt.append((x + (xi,), tot + xi, fi))
            stack = nxt
        for (x, tot, f) in stack:
            key = (
                tuple(a - b for a, b in zip(mu, x)),
                tuple(a - b for a, b in zip(nu, x)),
                m,
                j,
                k + tot,
            )
            val = c * float(f) * (sign**tot)
            out[key] = out.get(key, 0.0) + val
    return FTSeries._trusted(A.dim, out, A.max_weight)


def _heat_flow_normal_form(h: NormalForm, hbar_order: int, sign: int) -> NormalForm:
    """Same flow on radial symbols: the derivation sends p^r to r^2 p^{r-1}/2."""
    out = {}
    for (r, s, k), c in h.items():
        stack = [(r, k, 1.0)]
        seen = 0
        while stack:
            nxt = []
            for (rv, kk, f) in stack:
                key = (rv, s, kk)
                out[key] = out.get(key, 0.0) + c * f
            seen += 1
            for (rv, kk, f) in stack:
                if kk + 1 > hbar_order:
                    continue
                for i, ri in enumerate(rv):
                    if ri == 0:
                        continue
                    rv2 = tuple(v - 1 if a == i else v for a, v in enumerate(rv))
                    nxt.append((rv2, kk + 1, f * sign * ri * ri / (2.0 * seen)))
            stack = nxt
    return NormalForm(h.dim, out, route=h.route)


def _heat_flow(sym, hbar_order: int, sign: int):
    if isinstance(sym, FTSeries):
        return _heat_flow_series(sym, hbar_order, sign)
    if isinstance(sym, NormalForm):
        return _heat_flow_normal_form(sym, hbar_order, sign)
    raise TypeError("expected FTSeries or NormalForm")


def wick_from_weyl(sym, hbar_order: int):
    """Wick (normal-ordered) symbol from the Weyl symbol.

    Accepts an FTSeries or a NormalForm and returns the same kind.  On
    series this is exp(+hbar sum d_z d_zbar); on radial symbols the
    corresponding derivation in p.  Example: p -> p + hbar/2.
    """
    return _heat_flow(sym, hbar_order, +1)


def weyl_from_wick(sym, hbar_order: int):
    """Inverse of wick_from_weyl (the sign-reversed heat flow)."""
    return _heat_flow(sym, hbar_order, -1)


# -- Weyl symbols of words --------------------------------------------------------


def weyl_symbol_of_word(w, hbar_order: int, max_weight=math.inf) -> FTSeries:
    """Weyl symbol of a normal-ordered word polynomial.

    Per term c hbar^k e^{imt} (a^+)^mu a^nu D_t^j the factors quantize to
    e^{imt}, (zbar/sqrt2)^mu, (z/sqrt2)^nu, tau^j and are recombined with
    Moyal products in operator order, so Op(symbol) = word exactly through
    the hbar truncation.
    """
    from .words import WordPoly  # local import to keep the module DAG acyclic

    if not isinstance(w, WordPoly):
        raise TypeError("expected WordPoly")
    dim = w.dim
    zero = (0,) * dim
    total = FTSeries.zero(dim, max_weight)
    for (mu, nu, m, j, k), c in w.items():
        if k > hbar_order:
            continue
        scale = c * 2.0 ** (-(sum(mu) + sum(nu)) / 2.0)
        factors = []
        if m:
            factors.append(FTSeries.monomial(dim, zero, zero, m=m))
        if any(mu):
            factors.append(FTSeries.monomial(dim, zero, mu))
        if any(nu):
            factors.append(FTSeries.monomial(dim, nu, zero))
        if j:
            factors.append(FTSeries.monomial(dim, zero, zero, j=j))
        if not factors:
            term = FTSeries.constant(dim, 1.0)
        else:
            term = factors[0]
            for f in factors[1:]:
                term = moyal_product(term, f, hbar_order - k, max_weight)
        # the hbar^k shift raises the weight by 2k
        term = FTSeries._trusted(
            dim,
            {
                (tmu, tnu, tm, tj, tk + k): tc
                for (tmu, tnu, tm, tj, tk), tc in term.truncated(max_weight - 2 * k).items()
            },
            max_weight,
        )
        total = total + term.scaled(scale)
    return total


# -- comparison report ------------------------------------------------------------


def compare_normal_forms(label_a: str, a: NormalForm, label_b: str, b: NormalForm) -> str:
    """Structured text report: both tables, difference by hbar power, max gap."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    lines = [f"{label_a}:", "  " + a.pretty().replace("\n", "\n  ")]
    lines += [f"{label_b}:", "  " + b.pretty().replace("\n", "\n  ")]
    keys = set(k for k, _ in a.items()) | set(k for k, _ in b.items())
    by_k = {}
    for key in keys:
        gap = abs(a.coeff(*key) - b.coeff(*key))
        kk = key[2]
        by_k[kk] = max(by_k.get(kk, 0.0), gap)
    lines.append("difference by hbar power:")
    for kk in sorted(by_k):
        lines.append(f"  hbar^{kk}: max |delta c| = {by_k[kk]:.3e}")
    lines.append(f"max coefficient discrepancy: {max(by_k.values(), default=0.0):.3e}")
    return "\n".join(lines)
