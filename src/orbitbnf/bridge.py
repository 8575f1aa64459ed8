"""Dictionaries between operator orderings and functional calculus.

Three conversions live here:

* the Wick <-> Weyl heat flow  sigma^{wi} = e^{hbar(d^2_x + d^2_xi)/4} sigma^{we}
  (equivalently exp(+hbar d_z d_zbar) per transverse mode), finite on
  polynomial truncations and inverted by the sign-reversed series;

* the Weyl symbol of the functional calculus h(P_1, ..., P_n, D_t):
  for one mode, sigma^{we}(e^{isP}) = sec(s hbar / 2) exp(2i tan(s hbar/2) p / hbar),
  so p^k quantizes to the polynomial w_k(p, hbar) = (-i)^k k! [s^k] of that
  kernel's exponential-generating series.  The tan/log-sec coefficients are
  exact rationals from the tangent recurrence q u_q = [q=1] + sum u_a u_b,
  and the resulting w_k are real with even hbar powers only.  The kernel
  normalization is pinned by the Moyal oracle (w_1 = p, w_2 = p^2 - hbar^2/4),
  not transcribed;

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

from .exactnum import QComplex
from .normalform import NormalForm
from .series import FTSeries, moyal_product

# A NormalForm read as the phase-space function sum c * p^r tau^s hbar^k.
RadialSymbol = NormalForm


# -- exact tangent / log-secant coefficients ------------------------------------


@lru_cache(maxsize=None)
def _tan_coefficients(nmax: int):
    """u_0..u_nmax with tan(x) = sum u_q x^q, via q u_q = [q=1] + sum_{a+b=q-1} u_a u_b."""
    u = [Fraction(0)] * (nmax + 1)
    if nmax >= 1:
        u[1] = Fraction(1)
    for q in range(2, nmax + 1):
        acc = Fraction(0)
        for a in range(q):
            acc += u[a] * u[q - 1 - a]
        u[q] = acc / q
    return tuple(u)


@lru_cache(maxsize=None)
def _lnsec_coefficients(lmax: int):
    """a_1..a_lmax with ln sec(x) = sum_l a_l x^{2l} (from (ln sec)' = tan)."""
    u = _tan_coefficients(max(2 * lmax - 1, 1))
    return tuple(u[2 * l - 1] / (2 * l) for l in range(1, lmax + 1))


# -- one-mode fluctuation polynomials w_k(p, hbar) ------------------------------


def _poly_mul(a, b, smax):
    """Multiply s-series whose coefficients are {(p_pow, hbar_pow): QComplex}."""
    out = [dict() for _ in range(smax + 1)]
    for i, ai in enumerate(a):
        if i > smax or not ai:
            continue
        for jj, bj in enumerate(b):
            if i + jj > smax or not bj:
                continue
            dst = out[i + jj]
            for (r1, e1), c1 in ai.items():
                for (r2, e2), c2 in bj.items():
                    key = (r1 + r2, e1 + e2)
                    v = c1 * c2
                    dst[key] = dst[key] + v if key in dst else v
    return out


@lru_cache(maxsize=None)
def weyl_fluctuation_poly(k: int):
    """w_k as a tuple of ((p_power, hbar_power), Fraction) with hbar_power even.

    w_k is the exact Weyl symbol of P^k for one transverse mode P with
    symbol p: the k-th s-derivative at 0 of
    sec(s hbar/2) exp(2i tan(s hbar/2) p / hbar) times (-i)^k k!.
    Writing q = hbar^2/4, the log of the kernel is
    L(s) = sum_l a_l q^l s^{2l} + i p sum_l u_{2l-1} q^{l-1} s^{2l-1}.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    one = QComplex(Fraction(1), Fraction(0))
    if k == 0:
        return (((0, 0), Fraction(1)),)
    u = _tan_coefficients(k)
    a = _lnsec_coefficients(k // 2) if k >= 2 else ()
    # L as s-series with {(p_pow, hbar_pow): QComplex} coefficients
    L = [dict() for _ in range(k + 1)]
    for l in range(1, k // 2 + 1):
        #  a_l q^l s^{2l},  q = hbar^2/4
        L[2 * l][(0, 2 * l)] = QComplex(a[l - 1] / 4**l, Fraction(0))
    for l in range(1, (k + 1) // 2 + 1):
        deg = 2 * l - 1
        if deg > k:
            break
        # i p u_{2l-1} q^{l-1} s^{2l-1}
        L[deg][(1, 2 * (l - 1))] = QComplex(Fraction(0), u[deg] / 4 ** (l - 1))
    # exp(L) = sum L^n / n!
    E = [dict() for _ in range(k + 1)]
    E[0][(0, 0)] = one
    power = [dict() for _ in range(k + 1)]
    power[0][(0, 0)] = one
    fact = 1
    for n in range(1, k + 1):
        power = _poly_mul(power, L, k)
        fact *= n
        inv = QComplex(Fraction(1, fact), Fraction(0))
        for s_pow, coeffs in enumerate(power):
            for key, c in coeffs.items():
                v = c * inv
                dst = E[s_pow]
                dst[key] = dst[key] + v if key in dst else v
    # w_k = (-i)^k k! [s^k] E  -- real with even hbar powers
    kfact = math.factorial(k)
    quarter = k % 4  # (-i)^k cycles with period 4, applied exactly
    out = []
    for (r, e), c in sorted(E[k].items()):
        cc = c
        if quarter == 0:
            val = cc
        elif quarter == 2:
            val = QComplex(-cc.re, -cc.im)
        elif quarter == 1:  # multiply by -i
            val = QComplex(cc.im, -cc.re)
        else:  # multiply by +i
            val = QComplex(-cc.im, cc.re)
        val = val * QComplex(Fraction(kfact), Fraction(0))
        assert val.im == 0, "w_k acquired an imaginary part"
        assert e % 2 == 0, "w_k acquired an odd hbar power"
        if val.re:
            out.append(((r, e), val.re))
    return tuple(out)


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


def wick_from_weyl(sym, hbar_order: int):
    """Wick (normal-ordered) symbol from the Weyl symbol.

    Accepts an FTSeries or a NormalForm/RadialSymbol and returns the same
    kind.  On series this is exp(+hbar sum d_z d_zbar); on radial symbols
    the corresponding derivation in p.  Example: p -> p + hbar/2.
    """
    if isinstance(sym, FTSeries):
        return _heat_flow_series(sym, hbar_order, +1)
    if isinstance(sym, NormalForm):
        return _heat_flow_normal_form(sym, hbar_order, +1)
    raise TypeError("expected FTSeries or NormalForm")


def weyl_from_wick(sym, hbar_order: int):
    """Inverse of wick_from_weyl (the sign-reversed heat flow)."""
    if isinstance(sym, FTSeries):
        return _heat_flow_series(sym, hbar_order, -1)
    if isinstance(sym, NormalForm):
        return _heat_flow_normal_form(sym, hbar_order, -1)
    raise TypeError("expected FTSeries or NormalForm")


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
        term = FTSeries._trusted(
            dim,
            {
                (tmu, tnu, tm, tj, tk + k): tc
                for (tmu, tnu, tm, tj, tk), tc in term.items()
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
